// Package core implements GMT, the GPU-orchestrated 3-tier memory
// runtime of the paper: Tier-1 GPU memory managed by clock replacement,
// Tier-2 host memory looked up and populated directly by GPU threads, and
// the Tier-3 SSD reached through GPU-driven NVMe queues.
//
// Four placement policies are provided:
//
//   - PolicyBaM: the 2-tier baseline (GPU memory + SSD only); Tier-2 is
//     never consulted. This is the substrate GMT builds on.
//   - PolicyTierOrder (§2.1.1): every Tier-1 victim goes to Tier-2, with
//     clock replacement in both tiers.
//   - PolicyRandom (§2.1.2): a coin flip decides whether a victim goes to
//     Tier-2 or straight to the SSD (the latter only if dirty).
//   - PolicyReuse (§2.1.3): the paper's contribution — Remaining Reuse
//     Distance prediction via VTD sampling + OLS regression + a 3-state
//     Markov history predictor, with the 80% Tier-2 backfill heuristic of
//     §2.2.
//
// The up-path from SSD always bypasses Tier-2 (§2, "Bypassing").
package core

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/nvme"
	"github.com/gmtsim/gmt/internal/pcie"
	"github.com/gmtsim/gmt/internal/reuse"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/xfer"
)

// PolicyKind selects the Tier-1 eviction placement policy.
type PolicyKind uint8

// The policies evaluated in the paper.
const (
	PolicyBaM PolicyKind = iota
	PolicyTierOrder
	PolicyRandom
	PolicyReuse
	// PolicyOracle is an offline upper bound: Belady-style victim
	// selection and placement using perfect future knowledge (the
	// policy GMT-Reuse approximates, §2.1.3). Requires Config.Future.
	PolicyOracle
)

func (p PolicyKind) String() string {
	switch p {
	case PolicyBaM:
		return "BaM"
	case PolicyTierOrder:
		return "GMT-TierOrder"
	case PolicyRandom:
		return "GMT-Random"
	case PolicyReuse:
		return "GMT-Reuse"
	case PolicyOracle:
		return "GMT-Oracle"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// PredictorKind selects how GMT-Reuse predicts a candidate's class.
type PredictorKind uint8

// Predictor variants for the ablation of Figure 5's design.
const (
	// PredictorMarkov is the paper's 3-state Markov chain over the two
	// most recent correct classes (default).
	PredictorMarkov PredictorKind = iota
	// PredictorLastClass is a 1-level history: predict the page's last
	// correct class. Fails on alternating patterns (Figure 4c).
	PredictorLastClass
	// PredictorStatic always predicts Medium: place everything Tier-2
	// capacity allows, with no learning.
	PredictorStatic
)

func (k PredictorKind) String() string {
	switch k {
	case PredictorMarkov:
		return "markov"
	case PredictorLastClass:
		return "last-class"
	case PredictorStatic:
		return "static"
	default:
		return fmt.Sprintf("predictor(%d)", uint8(k))
	}
}

// Config parameterizes a Runtime: its Params plus the oracle's future.
type Config struct {
	Params

	// Future is the exact upcoming access sequence, required by
	// PolicyOracle (and ignored otherwise). It must match the stream
	// the GPU will issue.
	Future []tier.PageID
}

// Params is every Config field but Future, the one slice, so Params
// values are comparable: two configs whose Canonical forms have equal
// Params and equal futures simulate identically.
type Params struct {
	Policy PolicyKind

	// Tier1Pages / Tier2Pages size the top two tiers in 64 KiB pages.
	// Tier2Pages is ignored under PolicyBaM.
	Tier1Pages int
	Tier2Pages int
	PageSize   int64

	// Seed drives all randomized decisions (PolicyRandom's coin, the
	// Reuse policy's no-history fallback).
	Seed int64

	// Tier2Lookup is the critical-path cost of probing the Tier-2
	// directory on a Tier-1 miss (§3.4: ≈50 ns).
	Tier2Lookup sim.Time
	// Tier2EvictOverhead is the cost of running a replacement pass over
	// host-resident Tier-2 metadata (§2.1.1 drawback (iii): "the
	// additional cost of a replacement mechanism for host memory").
	// Paid by TierOrder/Random when displacing a Tier-2 resident;
	// GMT-Reuse never evicts Tier-2 (§2.1.3).
	Tier2EvictOverhead sim.Time
	// HostSWOverhead is the GPU-side software cost of a Tier-2 hit
	// beyond the raw transfer (pin bookkeeping, directory update);
	// calibrated so an unloaded Tier-2 hit costs ≈50 µs end to end.
	HostSWOverhead sim.Time

	// SampleTarget / SampleBatch configure the VTD sampling pipeline
	// (§2.1.3: pipelined batches, default every 10 000 samples).
	SampleTarget int
	SampleBatch  int

	// BackfillThreshold / BackfillWindow implement §2.2's heuristic: if
	// more than the threshold fraction of the last window Tier-1
	// evictions were classified Long, place victims into Tier-2 anyway.
	// Threshold > 1 disables the heuristic (ablation).
	BackfillThreshold float64
	BackfillWindow    int

	// MaxClockRetries bounds how many consecutive short-reuse clock
	// candidates GMT-Reuse may retain before evicting anyway.
	MaxClockRetries int

	// Predictor selects GMT-Reuse's class predictor (ablation of
	// §2.1.3's "a simple 2-level history suffices").
	Predictor PredictorKind

	// UnpipelinedRegression is the §2.1.3 strawman: regression
	// coefficients publish only once the full sample target is
	// collected, instead of refining every batch. The paper chose
	// pipelining because it "results in better placement for the early
	// part of the execution".
	UnpipelinedRegression bool

	// HistorySample, when positive, records a metrics snapshot every
	// that many accesses (the time series behind warmup studies).
	HistorySample int

	// AsyncEviction implements the paper's §5 future-work extension:
	// Tier-1 -> Tier-2 victim placements are performed in the
	// background instead of by the faulting warp, taking the placement
	// transfer off the miss's critical path (it still contends for the
	// PCIe link).
	AsyncEviction bool

	// PrefetchDegree enables sequential prefetch on demand SSD fills
	// (§2's "When?" discussion: placement in conjunction with
	// prefetching): after filling page p, up to PrefetchDegree
	// successor pages still homed on the SSD are fetched into free
	// Tier-1 slots. Prefetches never evict resident pages.
	PrefetchDegree int

	// UpPathThroughTier2 is the ablation of §2's up-path bypass: when
	// set, SSD fills stage through Tier-2 (an extra hop and Tier-2
	// churn) instead of landing directly in Tier-1. The paper argues —
	// and the ablation confirms — that bypassing is better.
	UpPathThroughTier2 bool

	// FootprintPages, when positive, declares the workload's page-ID
	// bound (max page ID + 1). The runtime presizes its dense page
	// directory and the tier residency indices to it, so the
	// steady-state per-access path performs zero allocations. Runs
	// work without it — the directories grow by doubling — but pay
	// occasional growth copies.
	FootprintPages int

	// Transfer calibrates Tier-1<->Tier-2 movement; SSD the drive;
	// SSDCount stripes pages across that many identical drives (BaM's
	// bandwidth-scaling configuration; the paper's testbed used 1);
	// HostLanes is the GPU<->host PCIe width.
	Transfer  xfer.Config
	SSD       nvme.Config
	SSDCount  int
	HostLanes int

	// Tier2Policy overrides the Tier-2 replacement policy. Empty keeps
	// the historical per-policy defaults (Clock under PolicyTierOrder,
	// FIFO otherwise), so existing configurations stay byte-identical.
	// Ignored under PolicyBaM, which has no Tier-2.
	Tier2Policy tier.StorePolicy

	// TrackTier2Reuse records, for every page reloaded from Tier-2, the
	// interval since its placement there (time-to-first-reuse). The
	// samples feed stats.Run.Tier2ReuseP50/P99. Off by default: the
	// sample slice grows with Tier-2 hit count, which would break the
	// zero-alloc guarantee of runs that don't ask for it.
	TrackTier2Reuse bool
}

// DefaultConfig mirrors the paper's default platform at 1/1024 of the
// paper's capacities: Tier-1 16 GB -> 256 pages ... callers normally
// override the tier sizes; see the workload package for experiment
// scaling.
func DefaultConfig() Config {
	return Config{Params: Params{
		Policy:             PolicyReuse,
		Tier1Pages:         1024,
		Tier2Pages:         4096,
		PageSize:           64 * 1024,
		Seed:               1,
		Tier2Lookup:        50 * sim.Nanosecond,
		Tier2EvictOverhead: 4 * sim.Microsecond,
		HostSWOverhead:     32 * sim.Microsecond,
		SampleTarget:       20_000,
		SampleBatch:        4_000,
		BackfillThreshold:  0.8,
		BackfillWindow:     64,
		MaxClockRetries:    8,
		Transfer:           xfer.DefaultConfig(),
		SSD:                nvme.DefaultConfig(),
		HostLanes:          16,
	}}
}

// Canonical returns cfg with the fields its run never reads normalized,
// so configs that simulate identically compare equal: under PolicyBaM,
// Tier2Pages (BaM has no Tier-2) and Seed (BaM makes no placement
// draws) are zeroed, and every SSDCount up to 1 becomes 1 (newStorage
// builds one drive for each). Nothing else is normalized.
func Canonical(cfg Config) Config {
	if cfg.Policy == PolicyBaM {
		cfg.Tier2Pages, cfg.Seed = 0, 0
	}
	if cfg.SSDCount < 1 {
		cfg.SSDCount = 1
	}
	return cfg
}

type location uint8

const (
	locSSD location = iota
	locTier1
	locTier2
	locInFlight
)

type pageState struct {
	loc location
	// t1slot caches the Tier-1 clock slot while loc == locTier1 (set at
	// install), so the hit path touches the clock's reference bitmap
	// directly instead of re-resolving page -> slot per access.
	t1slot int32
	dirty  bool
	// pendingDirty records writes that arrive while the page is in
	// flight; applied at install.
	pendingDirty bool
	// evictVTD is the global access counter at the last Tier-1
	// eviction; awaitingEval marks that the next access should evaluate
	// that eviction's placement.
	evictVTD     int64
	awaitingEval bool
	// Markov predictor state (Figure 5): the last correct class, and
	// the class predicted at the last eviction.
	lastCorrect   reuse.Class
	hasHistory    bool
	predicted     reuse.Class
	hasPrediction bool
	// provisional marks a Tier-2 resident placed without a trained
	// prediction (sampling-phase coin or the backfill heuristic). A
	// trained Medium placement may reclaim a provisional slot; trained
	// residents are never displaced (§2.1.3's equivalence-class
	// rationale). coinPlaced further marks sampling-phase coin
	// placements, which the backfill heuristic may also reclaim —
	// backfill-placed residents themselves are stable, preserving the
	// cyclic-scan retention that makes Hotspot win (§3.3).
	provisional bool
	coinPlaced  bool
	// nextUse is the global access index of the page's next reference
	// (PolicyOracle only; -1 when the page is never used again).
	nextUse int64
	// prefetched marks a speculative fill not yet demanded.
	prefetched bool
	// placedAt is the instant of the page's most recent Tier-2
	// placement (Config.TrackTier2Reuse time-to-first-reuse metric).
	placedAt sim.Time

	// waitHead/waitTail queue the typed completion callbacks of accesses
	// that arrived while the page was in flight (FIFO; run at install).
	// Nodes come from the runtime's chunk-allocated free list, so joining
	// an in-flight page allocates nothing in steady state.
	waitHead, waitTail *waiterNode
}

// waiterNode is one queued access completion on an in-flight page:
// call(ctx, arg) runs when the page installs.
type waiterNode struct {
	call sim.EventFunc
	ctx  any
	arg  int64
	next *waiterNode
}

// slotWait is one fetch stalled because every Tier-1 slot is committed
// to other in-flight fetches; start(ctx, 0) runs when an install frees
// capacity.
type slotWait struct {
	start sim.EventFunc
	ctx   any
}

// Storage is the drive-side interface the runtime issues I/O against:
// a single *nvme.Disk or a striped *nvme.Array.
type Storage interface {
	// ReadCall and WriteCall issue one command; call(ctx, arg) runs at
	// completion with no per-command closure (see nvme.Disk.SubmitCall).
	ReadCall(lba, n int64, call sim.EventFunc, ctx any, arg int64)
	WriteCall(lba, n int64, call sim.EventFunc, ctx any, arg int64)
	Stats() nvme.Stats
}

// Runtime is a GMT memory manager. It implements gpu.MemoryManager; all
// orchestration happens in simulated GPU threads (event callbacks), never
// on a modeled host CPU.
type Runtime struct {
	eng *sim.Engine
	cfg Config

	ssd      Storage
	hostLink *pcie.Link
	mover    *xfer.Engine

	t1 *tier.Clock
	t2 tier.Store // nil under PolicyBaM

	dir pageDirectory
	// reserved counts Tier-1 slots committed to in-flight fetches;
	// slotWaiters holds fetches stalled because every slot is either
	// occupied by another in-flight fetch or unpickable. The queue is a
	// head-cursor FIFO (mirroring sim.Server.waiters) so draining it
	// reuses the backing array instead of reslicing it away.
	reserved    int
	slotWaiters []slotWait
	slotHead    int

	// fetchPool / placePool / waiterFree recycle the per-miss pipeline
	// records and waiter nodes so the steady-state miss path allocates
	// nothing; pool misses are amortized by chunk allocation.
	fetchPool  []*fetch
	placePool  []*placement
	waiterFree *waiterNode

	vtd        int64
	sampler    *reuse.Sampler
	markov     reuse.Markov
	classifier reuse.Classifier
	// rng is the runtime's own random stream, seeded from Config.Seed
	// and reseeded by Reset.
	rng *rand.Rand
	// keptSampler survives Reset: the sampler an earlier Reuse run grew
	// (reset in place, its tracker's capacity kept). sampler points at
	// it for the runs that use it.
	keptSampler *reuse.Sampler
	// historySample is cfg.HistorySample pre-widened to int64 so the
	// per-access modulus needs no conversion; hotAux is true when any
	// sampling work (history snapshots, the reuse sampler) must run per
	// access, folding those checks into one branch on the hit path.
	historySample int64
	hotAux        bool
	// nextOcc[i] is the next access index of the page accessed at
	// index i (PolicyOracle only; -1 = never again). t1Heap and t2Heap
	// rank each tier's residents by next use for the oracle's victim
	// selection (see oracle.go); they stay empty under other policies.
	nextOcc []int64
	t1Heap  oracleHeap
	t2Heap  oracleHeap

	// Ring of recent eviction classifications for the 80% heuristic.
	recentLong []bool
	recentPos  int
	recentN    int

	m       stats.Run
	history []stats.Run

	// reuseNS collects Tier-2 time-to-first-reuse intervals when
	// Config.TrackTier2Reuse is set (nil otherwise).
	reuseNS []int64
}

var _ gpu.MemoryManager = (*Runtime)(nil)

// NewRuntime builds a runtime (and its devices) on eng.
func NewRuntime(eng *sim.Engine, cfg Config) *Runtime {
	checkShape(cfg)
	rt := &Runtime{
		eng:      eng,
		ssd:      newStorage(eng, cfg),
		hostLink: pcie.NewLink(eng, cfg.HostLanes),
		t1:       tier.NewClock(cfg.Tier1Pages),
	}
	rt.mover = xfer.NewEngine(eng, rt.hostLink, cfg.Transfer)
	rt.t2 = newTier2(cfg)
	rt.begin(cfg)
	return rt
}

// checkShape panics on a config no runtime can be built for.
func checkShape(cfg Config) {
	if cfg.Tier1Pages < 1 {
		panic("core: Tier1Pages must be >= 1")
	}
	if cfg.PageSize <= 0 {
		panic("core: PageSize must be positive")
	}
}

// begin sets up the per-run state cfg selects on a runtime whose devices
// are built (or reset) and whose run state is empty: the random stream,
// the Reuse sampler and backfill window, the oracle's next-use table,
// and the footprint reservations. NewRuntime and Reset share it.
func (rt *Runtime) begin(cfg Config) {
	rt.cfg = cfg
	// Seed replays exactly what rand.New(rand.NewSource(cfg.Seed))
	// would draw.
	if rt.rng == nil {
		rt.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		rt.rng.Seed(cfg.Seed)
	}
	rt.classifier = reuse.Classifier{
		Tier1Pages: int64(cfg.Tier1Pages),
		Tier2Pages: int64(cfg.Tier2Pages),
	}
	if cfg.Policy == PolicyReuse {
		if rt.keptSampler == nil {
			rt.keptSampler = reuse.NewSampler(cfg.SampleTarget, cfg.SampleBatch)
		} else {
			rt.keptSampler.Reset(cfg.SampleTarget, cfg.SampleBatch)
		}
		rt.sampler = rt.keptSampler
		rt.sampler.SetPipelined(!cfg.UnpipelinedRegression)
		w := cfg.BackfillWindow
		if w < 1 {
			w = 1
		}
		if cap(rt.recentLong) < w {
			rt.recentLong = make([]bool, w)
		}
		rt.recentLong = rt.recentLong[:w]
		clear(rt.recentLong)
	}
	if cfg.Policy == PolicyOracle {
		if cfg.Future == nil {
			panic("core: PolicyOracle requires Config.Future")
		}
		rt.nextOcc = nextOccurrences(cfg.Future)
	}
	if cfg.FootprintPages > 0 {
		rt.dir.reserve(cfg.FootprintPages)
		rt.t1.Reserve(cfg.FootprintPages)
		if rt.t2 != nil {
			rt.t2.Reserve(cfg.FootprintPages)
		}
	}
	rt.m.Policy = cfg.Policy.String()
	rt.historySample = int64(cfg.HistorySample)
	rt.hotAux = rt.historySample > 0 || rt.sampler != nil
}

// newStorage builds the drive (or striped array) for cfg on eng.
func newStorage(eng *sim.Engine, cfg Config) Storage {
	if cfg.SSDCount > 1 {
		return nvme.NewArray(eng, cfg.SSD, cfg.SSDCount)
	}
	return nvme.New(eng, cfg.SSD)
}

// newTier2 builds the Tier-2 store for cfg (nil under PolicyBaM): the
// configured override, Clock under TierOrder (§2.1.1), FIFO otherwise
// (§2.2).
func newTier2(cfg Config) tier.Store {
	if cfg.Policy == PolicyBaM {
		return nil
	}
	if cfg.Tier2Pages < 1 {
		panic("core: Tier2Pages must be >= 1 for 3-tier policies")
	}
	switch {
	case cfg.Tier2Policy != "":
		return tier.NewStore(cfg.Tier2Policy, cfg.Tier2Pages)
	case cfg.Policy == PolicyTierOrder:
		return tier.NewClock(cfg.Tier2Pages)
	default:
		return tier.NewFIFO(cfg.Tier2Pages)
	}
}

// Reset returns the runtime — and the engine it schedules on — to the
// state NewRuntime(rt.Engine(), cfg) would construct, retaining the
// large allocations a fresh build would have to repeat: the page
// directory's state arena and index, the tier residency arrays (when
// capacities allow), the engine's event arena, every pipeline pool
// (fetches, placements, waiter nodes, NVMe requests, transfer moves),
// the Reuse sampler with its distance tracker, and the runtime's own
// random stream, reseeded from cfg.Seed.
// exp's worker pool, fleet's per-template units and gmt.Runner recycle
// runtimes through this; the contract is byte-identical
// output versus a fresh runtime, pinned by TestResetMatchesFresh and,
// at suite scale, by TestQuickGoldens in internal/exp.
//
// Devices and tier structures whose shape cfg changes (different drive
// config, lane count, capacities, or Tier-2 policy) are rebuilt rather
// than reset; everything shape-compatible is reset in place.
func (rt *Runtime) Reset(cfg Config) {
	checkShape(cfg)
	rt.eng.Reset()

	// Storage: reset in place when the drive shape is unchanged.
	if cfg.SSD == rt.cfg.SSD && cfg.SSDCount == rt.cfg.SSDCount {
		resetStorage(rt.ssd)
	} else {
		rt.ssd = newStorage(rt.eng, cfg)
	}
	// Host link and mover: the mover holds the link, so a rebuilt link
	// forces a rebuilt mover.
	if cfg.HostLanes == rt.cfg.HostLanes {
		rt.hostLink.Reset()
		if cfg.Transfer == rt.cfg.Transfer {
			rt.mover.Reset()
		} else {
			rt.mover = xfer.NewEngine(rt.eng, rt.hostLink, cfg.Transfer)
		}
	} else {
		rt.hostLink = pcie.NewLink(rt.eng, cfg.HostLanes)
		rt.mover = xfer.NewEngine(rt.eng, rt.hostLink, cfg.Transfer)
	}
	// Tiers.
	if cfg.Tier1Pages == rt.cfg.Tier1Pages {
		rt.t1.Reset()
	} else {
		rt.t1 = tier.NewClock(cfg.Tier1Pages)
	}
	if tier2Compatible(rt.cfg, cfg) {
		if rt.t2 != nil {
			rt.t2.Reset()
		}
	} else {
		rt.t2 = newTier2(cfg)
	}

	rt.dir.reset()
	rt.reserved = 0
	for i := range rt.slotWaiters {
		rt.slotWaiters[i] = slotWait{}
	}
	rt.slotWaiters = rt.slotWaiters[:0]
	rt.slotHead = 0
	rt.vtd = 0
	rt.sampler = nil
	rt.markov = reuse.Markov{}
	rt.recentPos, rt.recentN = 0, 0
	rt.nextOcc = nil
	rt.t1Heap, rt.t2Heap = rt.t1Heap[:0], rt.t2Heap[:0]
	rt.m = stats.Run{}
	rt.history = rt.history[:0]
	rt.reuseNS = nil
	rt.begin(cfg)
}

// resetStorage resets a drive or striped array in place.
func resetStorage(s Storage) {
	switch d := s.(type) {
	case *nvme.Disk:
		d.Reset()
	case *nvme.Array:
		d.Reset()
	default:
		panic(fmt.Sprintf("core: cannot reset storage of type %T", s))
	}
}

// tier2Name reports the store policy newTier2 would build for cfg.
func tier2Name(cfg Config) tier.StorePolicy {
	switch {
	case cfg.Tier2Policy != "":
		return cfg.Tier2Policy
	case cfg.Policy == PolicyTierOrder:
		return tier.StoreClock
	default:
		return tier.StoreFIFO
	}
}

// tier2Compatible reports whether the Tier-2 store built for old can be
// Reset in place to serve new: same presence, implementation, and
// capacity.
func tier2Compatible(old, new Config) bool {
	oldBaM, newBaM := old.Policy == PolicyBaM, new.Policy == PolicyBaM
	if oldBaM || newBaM {
		return oldBaM == newBaM
	}
	return old.Tier2Pages == new.Tier2Pages && tier2Name(old) == tier2Name(new)
}

// nextOccurrences computes, for each position, the next position of the
// same page (-1 if none). The last-seen table is a slice keyed by page
// ID (IDs are footprint-bounded); negative sentinel IDs — barrier
// markers some callers leave in their traces — get a small mirror slice
// keyed by ^id, keeping the whole computation map-free.
func nextOccurrences(future []tier.PageID) []int64 {
	var bound, negBound int64
	for _, p := range future {
		if p >= 0 {
			if int64(p)+1 > bound {
				bound = int64(p) + 1
			}
		} else if -int64(p) > negBound {
			negBound = -int64(p)
		}
	}
	next := make([]int64, len(future))
	last := make([]int64, bound)
	lastNeg := make([]int64, negBound)
	for i := range last {
		last[i] = -1
	}
	for i := range lastNeg {
		lastNeg[i] = -1
	}
	for i := len(future) - 1; i >= 0; i-- {
		var cell *int64
		if p := future[i]; p >= 0 {
			cell = &last[p]
		} else {
			cell = &lastNeg[-int64(p)-1]
		}
		next[i] = *cell
		*cell = int64(i)
	}
	return next
}

// Engine exposes the engine this runtime schedules on.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// SSD exposes the simulated drive (for experiment-level stats).
func (rt *Runtime) SSD() Storage { return rt.ssd }

func (rt *Runtime) page(p tier.PageID) *pageState {
	return rt.dir.lookup(p)
}

// Access implements gpu.MemoryManager: one coalesced page reference. On
// a Tier-1 hit it returns true and the callback is neither retained nor
// invoked; otherwise call(ctx, arg) runs exactly once when the page
// lands. Passing a top-level function with a pointer context keeps the
// whole miss pipeline — waiter queue, slot reservation, eviction
// placement, device completion — free of per-access allocations.
//
//gmt:hotpath
func (rt *Runtime) Access(a gpu.Access, call sim.EventFunc, ctx any, arg int64) bool {
	if invariant.Enabled {
		invariant.Assert(rt.t1.Len()+rt.reserved <= rt.t1.Capacity(),
			"core: tier-1 oversubscribed: %d resident + %d reserved > %d slots",
			rt.t1.Len(), rt.reserved, rt.t1.Capacity())
		rt.hostLink.CheckInvariants()
	}
	idx := rt.vtd
	rt.vtd++
	rt.m.Accesses++
	if rt.hotAux {
		rt.accessAux(a.Page)
	}
	// Open-coded pageDirectory.lookup fast path: lookup's inline cost
	// lands just over the compiler's budget, and this is the hottest
	// call site in the simulator, so the one-compare resident case is
	// spelled out here and everything else takes the outlined slow path.
	var ps *pageState
	if dir := rt.dir.dir; uint64(a.Page) < uint64(len(dir)) {
		ps = dir[a.Page]
	}
	if ps == nil {
		ps = rt.dir.lookupSlow(a.Page)
	}
	if rt.nextOcc != nil {
		rt.oracleAdvance(a.Page, ps, idx)
	}
	if ps.loc == locTier1 {
		rt.m.Tier1Hits++
		rt.t1.TouchSlot(ps.t1slot)
		if a.Write {
			ps.dirty = true
		}
		if ps.prefetched {
			ps.prefetched = false
			rt.m.PrefetchHits++
		}
		return true
	}
	switch ps.loc {
	case locInFlight:
		rt.m.InFlightJoins++
		if a.Write {
			ps.pendingDirty = true
		}
		if ps.prefetched {
			ps.prefetched = false
			rt.m.PrefetchHits++
		}
		rt.queueWaiter(ps, call, ctx, arg)
	case locTier2:
		rt.evaluateEviction(ps, idx)
		rt.fetchFromTier2(a, ps, call, ctx, arg)
	case locSSD:
		rt.evaluateEviction(ps, idx)
		rt.fetchFromSSD(a, ps, call, ctx, arg)
	default:
		panic("core: invalid page location")
	}
	return false
}

// accessAux is the cold sampling tail of the access prefix: metric
// history snapshots and reuse-sampler observation. Split out (and gated
// by hotAux) so the hit path pays one predictable branch instead of a
// config conversion and two field tests per access.
//
//gmt:coldpath
func (rt *Runtime) accessAux(p tier.PageID) {
	if rt.historySample > 0 && rt.m.Accesses%rt.historySample == 0 {
		rt.history = append(rt.history, rt.Snapshot())
	}
	if rt.sampler != nil {
		rt.sampler.Observe(p)
	}
}

// evaluateEviction scores the page's previous Tier-1 eviction now that
// its actual remaining VTD is known (§2.1.3 step 2): the actual RVTD is
// the access-counter delta since eviction, the regression projects the
// RRD, Eq. 1 yields the correct class, and the Markov chain learns the
// transition from the previous correct class.
//
//gmt:coldpath
func (rt *Runtime) evaluateEviction(ps *pageState, idx int64) {
	if rt.cfg.Policy != PolicyReuse || !ps.awaitingEval {
		return
	}
	ps.awaitingEval = false
	rvtd := idx - ps.evictVTD
	rrd := rt.sampler.Coeffs().Estimate(rvtd)
	correct := rt.classifier.Classify(rrd)
	if ps.hasPrediction {
		rt.m.Predictions++
		if ps.predicted == correct {
			rt.m.CorrectPredictions++
		}
		ps.hasPrediction = false
	}
	if ps.hasHistory {
		rt.markov.Update(ps.lastCorrect, correct)
	}
	ps.lastCorrect = correct
	ps.hasHistory = true
}

// fetch carries one miss through its fill pipeline: Tier-1 slot
// reservation → lookup/metadata latency → data movement (drive read or
// Tier-2 page move) → install. Fetches are chunk-allocated and pooled
// on the Runtime, and every stage is a top-level EventFunc, so the
// steady-state miss path performs no per-fetch allocation.
type fetch struct {
	rt     *Runtime
	page   tier.PageID
	lookup sim.Time // pre-transfer metadata latency
}

// fetchChunkSize sizes the fetch pool's allocation granule: a pool miss
// carves 64 records at once, bounding warm-up allocations by
// peak-in-flight/64 instead of paying one per record.
const fetchChunkSize = 64

// Typed stages of the fill pipeline (zero-alloc AfterCall/ReadCall/
// MovePageCall paths).

// fetchStartSSD runs once the Tier-1 slot is reserved: the
// lookup/metadata latency elapses, then the drive read is issued.
//
//gmt:hotpath
func fetchStartSSD(ctx any, _ int64) {
	f := ctx.(*fetch)
	f.rt.eng.AfterCall(f.lookup, fetchSSDReady, f, 0)
}

// fetchStartT2 runs once the Tier-1 slot is reserved: the
// lookup/metadata latency elapses, then the page moves down.
//
//gmt:hotpath
func fetchStartT2(ctx any, _ int64) {
	f := ctx.(*fetch)
	f.rt.eng.AfterCall(f.lookup, fetchT2Ready, f, 0)
}

//gmt:hotpath
func fetchSSDReady(ctx any, _ int64) {
	f := ctx.(*fetch)
	f.rt.ssd.ReadCall(int64(f.page), f.rt.cfg.PageSize, fetchLanded, f, 0)
}

//gmt:hotpath
func fetchT2Ready(ctx any, _ int64) {
	f := ctx.(*fetch)
	f.rt.mover.MovePageCall(false, gpu.WarpThreads, fetchMoved, f, 0)
}

// fetchLanded completes an SSD fill.
//
//gmt:hotpath
func fetchLanded(ctx any, _ int64) {
	f := ctx.(*fetch)
	rt, p := f.rt, f.page
	// Recycle before landing: install may trigger further fetches, which
	// are free to reuse this record.
	rt.fetchPool = append(rt.fetchPool, f)
	rt.landFill(p)
}

// fetchMoved completes a Tier-2 page move down.
//
//gmt:hotpath
func fetchMoved(ctx any, _ int64) {
	f := ctx.(*fetch)
	rt, p := f.rt, f.page
	rt.fetchPool = append(rt.fetchPool, f)
	rt.m.PagesToGPU++
	rt.install(p)
}

// newFetch pops a pooled fetch, carving a fresh chunk on a pool miss.
//
//gmt:coldpath
func (rt *Runtime) newFetch() *fetch {
	n := len(rt.fetchPool)
	if n == 0 {
		chunk := make([]fetch, fetchChunkSize)
		for i := range chunk {
			chunk[i].rt = rt
			rt.fetchPool = append(rt.fetchPool, &chunk[i])
		}
		n = len(rt.fetchPool)
	}
	f := rt.fetchPool[n-1]
	rt.fetchPool = rt.fetchPool[:n-1]
	return f
}

// fetchFromTier2 serves a miss from host memory: a useful Tier-2 lookup,
// then a GPU-orchestrated page move down (Hybrid-XT, §2.3).
//
//gmt:hotpath
func (rt *Runtime) fetchFromTier2(a gpu.Access, ps *pageState, call sim.EventFunc, ctx any, arg int64) {
	rt.m.Tier2Lookups++
	rt.m.Tier2Hits++
	if rt.cfg.TrackTier2Reuse {
		rt.noteTier2Reuse(ps)
	}
	// The page leaves Tier-2 the moment the move starts (no duplication
	// across tiers, §2.2). Removing before the eviction triggered by
	// beginFetch means the vacated slot is available to the victim —
	// the "demand miss creates a free slot" flow of §2.2.
	rt.t2.Remove(a.Page)
	f := rt.newFetch()
	f.page = a.Page
	f.lookup = rt.cfg.Tier2Lookup + rt.cfg.HostSWOverhead
	rt.beginFetch(a, ps, call, ctx, arg, fetchStartT2, f)
}

// noteTier2Reuse records the time-to-first-reuse sample for a Tier-2
// hit. Config-gated (TrackTier2Reuse) and growing, so it lives behind a
// coldpath barrier off the miss path.
//
//gmt:coldpath
func (rt *Runtime) noteTier2Reuse(ps *pageState) {
	rt.reuseNS = append(rt.reuseNS, int64(rt.eng.Now()-ps.placedAt))
}

// fetchFromSSD serves a miss from the drive, bypassing Tier-2 on the
// up-path. Under the 3-tier policies the preceding Tier-2 probe was
// wasteful and its latency sits on the critical path (§3.4).
//
//gmt:hotpath
func (rt *Runtime) fetchFromSSD(a gpu.Access, ps *pageState, call sim.EventFunc, ctx any, arg int64) {
	lookup := sim.Time(0)
	if rt.cfg.Policy != PolicyBaM {
		rt.m.Tier2Lookups++
		rt.m.WastefulLookups++
		lookup = rt.cfg.Tier2Lookup
	}
	rt.m.SSDFills++
	f := rt.newFetch()
	f.page = a.Page
	f.lookup = lookup
	rt.beginFetch(a, ps, call, ctx, arg, fetchStartSSD, f)
	if rt.cfg.PrefetchDegree > 0 {
		rt.prefetchAfter(a.Page)
	}
}

// landFill completes an SSD fill: directly into Tier-1 (the paper's
// up-path bypass), or staged through Tier-2 under the ablation flag.
//
//gmt:hotpath
func (rt *Runtime) landFill(p tier.PageID) {
	if !rt.cfg.UpPathThroughTier2 || rt.t2 == nil {
		rt.install(p)
		return
	}
	rt.landFillStaged(p)
}

// landFillStaged is the UpPathThroughTier2 ablation: the page lands in
// a host staging buffer first, then is moved up by the warp, paying the
// host software path and an extra PCIe hop on every fill. Both stages
// are typed events with the runtime as ctx and the page as arg, so the
// ablation needs no record.
//
//gmt:hotpath
func (rt *Runtime) landFillStaged(p tier.PageID) {
	rt.eng.AfterCall(rt.cfg.HostSWOverhead, stagedFillHosted, rt, int64(p))
}

// stagedFillHosted runs once the staged page is in host memory: the warp
// moves it down to the GPU.
//
//gmt:hotpath
func stagedFillHosted(ctx any, p int64) {
	ctx.(*Runtime).mover.MovePageCall(false, gpu.WarpThreads, stagedFillMoved, ctx, p)
}

// stagedFillMoved installs a staged page once it reaches the GPU.
//
//gmt:hotpath
func stagedFillMoved(ctx any, p int64) {
	rt := ctx.(*Runtime)
	rt.m.PagesToGPU++
	rt.install(tier.PageID(p))
}

// prefetchAfter speculatively fetches sequential successors of a
// demand-missed page into free Tier-1 slots (never evicting for them).
// Config-gated (PrefetchDegree); off the default miss path.
//
//gmt:coldpath
func (rt *Runtime) prefetchAfter(p tier.PageID) {
	for k := 1; k <= rt.cfg.PrefetchDegree; k++ {
		q := p + tier.PageID(k)
		qs := rt.page(q)
		if qs.loc != locSSD {
			continue
		}
		if rt.t1.Len()+rt.reserved >= rt.t1.Capacity() {
			return // no free slot; prefetch never evicts
		}
		rt.reserved++
		qs.loc = locInFlight
		qs.prefetched = true
		rt.m.Prefetches++
		f := rt.newFetch()
		f.page = q
		rt.ssd.ReadCall(int64(q), rt.cfg.PageSize, fetchLanded, f, 0)
	}
}

// beginFetch flips the page in-flight and queues the requester; start
// runs (possibly immediately, with f as its context) once a Tier-1 slot
// has been reserved.
//
//gmt:hotpath
func (rt *Runtime) beginFetch(a gpu.Access, ps *pageState, call sim.EventFunc, ctx any, arg int64, start sim.EventFunc, f *fetch) {
	ps.loc = locInFlight
	if a.Write {
		ps.pendingDirty = true
	}
	rt.queueWaiter(ps, call, ctx, arg)
	rt.acquireSlot(start, f)
}

// queueWaiter appends one typed completion callback to the page's
// in-flight waiter queue. Nodes are free-listed; install returns them
// once dispatched, so the population is bounded by the peak number of
// concurrently queued accesses, not by the footprint.
//
//gmt:hotpath
func (rt *Runtime) queueWaiter(ps *pageState, call sim.EventFunc, ctx any, arg int64) {
	n := rt.waiterFree
	if n == nil {
		n = rt.newWaiterChunk()
	}
	rt.waiterFree = n.next
	n.call, n.ctx, n.arg, n.next = call, ctx, arg, nil
	if ps.waitTail == nil {
		ps.waitHead = n
	} else {
		ps.waitTail.next = n
	}
	ps.waitTail = n
}

// waiterChunkSize sizes the waiter free list's allocation granule.
const waiterChunkSize = 64

// newWaiterChunk carves a fresh chunk of linked waiter nodes, returning
// its head (the chunk's tail terminates the new free list).
//
//gmt:coldpath
func (rt *Runtime) newWaiterChunk() *waiterNode {
	chunk := make([]waiterNode, waiterChunkSize)
	for i := range chunk[:len(chunk)-1] {
		chunk[i].next = &chunk[i+1]
	}
	return &chunk[0]
}

// acquireSlot reserves a Tier-1 slot for an in-flight fetch, evicting a
// victim if needed. When every slot is already committed to other
// in-flight fetches (more concurrently faulting warps than Tier-1
// slots), the fetch queues until an install frees capacity.
//
// When the victim is placed into Tier-2, start is gated on the placement
// transfer: the faulting warp's threads perform the page move to host
// memory before reusing the slot, so indiscriminate placement (TierOrder)
// pays its cost on the miss path while discards are free. Dirty
// writebacks to the SSD stay asynchronous (both BaM and GMT enqueue them
// to the drive's queues and move on).
//
//gmt:hotpath
func (rt *Runtime) acquireSlot(start sim.EventFunc, ctx any) {
	if rt.t1.Len() == 0 && rt.reserved >= rt.t1.Capacity() {
		rt.slotWaiters = append(rt.slotWaiters, slotWait{start, ctx})
		return
	}
	if rt.t1.Len()+rt.reserved >= rt.t1.Capacity() {
		rt.reserved++
		rt.evictTier1(start, ctx)
		return
	}
	rt.reserved++
	start(ctx, 0)
}

// slotQueued reports how many fetches are stalled on slot capacity.
func (rt *Runtime) slotQueued() int { return len(rt.slotWaiters) - rt.slotHead }

// install completes a fetch: the page enters Tier-1 and all waiters run.
//
//gmt:hotpath
func (rt *Runtime) install(p tier.PageID) {
	ps := rt.page(p)
	rt.reserved--
	ps.t1slot = rt.t1.InsertSlot(p)
	ps.loc = locTier1
	ps.dirty = ps.pendingDirty
	ps.pendingDirty = false
	if rt.nextOcc != nil {
		rt.oracleTrack(rt.t1, &rt.t1Heap, p, ps)
	}
	// Detach the waiter queue before running it (a waiter may re-miss
	// and re-queue), returning each node to the free list with its
	// payload cleared so dispatched callbacks stay collectable.
	n := ps.waitHead
	ps.waitHead, ps.waitTail = nil, nil
	for n != nil {
		next := n.next
		call, ctx, arg := n.call, n.ctx, n.arg
		*n = waiterNode{next: rt.waiterFree}
		rt.waiterFree = n
		call(ctx, arg)
		n = next
	}
	if rt.slotHead < len(rt.slotWaiters) {
		w := rt.slotWaiters[rt.slotHead]
		rt.slotWaiters[rt.slotHead] = slotWait{}
		rt.slotHead++
		if rt.slotHead == len(rt.slotWaiters) {
			rt.slotWaiters = rt.slotWaiters[:0]
			rt.slotHead = 0
		}
		rt.acquireSlot(w.start, w.ctx)
	}
}

// evictTier1 runs the clock and the configured placement policy on the
// victim. ready(rctx, 0) fires when the slot's data is out of the way:
// immediately for discards/writebacks, or after the Tier-2 placement
// transfer.
//
//gmt:hotpath
func (rt *Runtime) evictTier1(ready sim.EventFunc, rctx any) {
	if rt.cfg.Policy == PolicyOracle {
		rt.oracleEvict(ready, rctx)
		return
	}
	victim := rt.t1.Victim()
	var class reuse.Class
	var trained bool
	if rt.cfg.Policy == PolicyReuse {
		victim, class, trained = rt.chooseReuseVictim(victim)
	}
	rt.t1.Remove(victim)
	ps := rt.page(victim)
	ps.loc = locSSD // provisional; placement may move it to Tier-2
	if rt.cfg.Policy == PolicyReuse {
		ps.evictVTD = rt.vtd
		ps.awaitingEval = true
	}
	switch rt.cfg.Policy {
	case PolicyBaM:
		rt.discard(victim, ps)
		ready(rctx, 0)
	case PolicyTierOrder:
		rt.placeInTier2Evicting(victim, ps, ready, rctx)
	case PolicyRandom:
		if rt.rng.Intn(2) == 0 {
			rt.placeInTier2Evicting(victim, ps, ready, rctx)
		} else {
			rt.discard(victim, ps)
			ready(rctx, 0)
		}
	case PolicyReuse:
		rt.placeByClass(victim, ps, class, trained, ready, rctx)
	default:
		panic("core: unknown policy")
	}
}

// chooseReuseVictim applies §2.1.3's candidate loop: short-reuse
// candidates are retained (clock rerun), bounded by MaxClockRetries.
// trained reports whether the class came from the Markov predictor
// rather than a fallback.
func (rt *Runtime) chooseReuseVictim(cand tier.PageID) (tier.PageID, reuse.Class, bool) {
	for retry := 0; ; retry++ {
		class, ok := rt.predictClass(cand)
		if !ok {
			// No history. During the sampling window, proceed with the
			// default strategy (GMT-Random's coin, §2.1.3). Once the
			// regression is trained, an unknown page is most likely a
			// streamed page that will never return: classify it Long so
			// it cannot clog Tier-2 (the backfill heuristic still
			// recycles such pages into an underused Tier-2).
			if rt.sampler.Done() {
				class = reuse.Long
			} else if rt.rng.Intn(2) == 0 {
				class = reuse.Medium
			} else {
				class = reuse.Long
			}
			return cand, class, false
		}
		if class != reuse.Short || retry >= rt.cfg.MaxClockRetries {
			return cand, class, true
		}
		rt.t1.Reject(cand)
		cand = rt.t1.Victim()
	}
}

// predictClass consults the configured predictor for the page's next
// class.
func (rt *Runtime) predictClass(p tier.PageID) (reuse.Class, bool) {
	ps := rt.dir.get(p)
	switch rt.cfg.Predictor {
	case PredictorStatic:
		return reuse.Medium, true
	case PredictorLastClass:
		if !ps.hasHistory {
			return 0, false
		}
		return ps.lastCorrect, true
	default: // PredictorMarkov
		if !ps.hasHistory || !rt.markov.Trained(ps.lastCorrect) {
			return 0, false
		}
		return rt.markov.Predict(ps.lastCorrect), true
	}
}

// placeByClass implements GMT-Reuse's placement: Medium goes to Tier-2
// when a free slot exists (never evicting — §2.1.3: Tier-2 residents are
// peers in the same equivalence class); Long goes down, unless the 80%
// backfill heuristic (§2.2) redirects it into an underused Tier-2. A
// Short class can only reach here via the retry bound; it is treated as
// Medium, the nearest placeable tier.
//
//gmt:hotpath
func (rt *Runtime) placeByClass(victim tier.PageID, ps *pageState, class reuse.Class, trained bool, ready sim.EventFunc, rctx any) {
	ps.predicted = class
	ps.hasPrediction = true
	rt.noteEvictionClass(class)
	switch class {
	case reuse.Short, reuse.Medium:
		ps.provisional = !trained
		ps.coinPlaced = !trained
		if !rt.t2.Full() {
			rt.placeInTier2(victim, ps, ready, rctx)
			return
		}
		// A trained Medium page may reclaim the slot of the oldest
		// provisional resident; trained residents are never displaced.
		if trained && rt.reclaimTier2(psProvisional) {
			rt.placeInTier2Delayed(victim, ps, rt.cfg.Tier2EvictOverhead, ready, rctx)
			return
		}
		rt.discard(victim, ps)
		ready(rctx, 0)
	case reuse.Long:
		if rt.backfillActive() {
			if !rt.t2.Full() {
				rt.m.BackfillPlaced++
				ps.provisional = true
				ps.coinPlaced = false
				rt.placeInTier2(victim, ps, ready, rctx)
				return
			}
			// Backfill may recycle stale sampling-phase coin
			// placements, but never other backfill residents — that
			// stability is what retains a useful subset of a cyclic
			// scan.
			if rt.reclaimTier2(psCoinPlaced) {
				rt.m.BackfillPlaced++
				ps.provisional = true
				ps.coinPlaced = false
				rt.placeInTier2Delayed(victim, ps, rt.cfg.Tier2EvictOverhead, ready, rctx)
				return
			}
		}
		rt.discard(victim, ps)
		ready(rctx, 0)
	default:
		panic("core: unplaceable class")
	}
}

// Reclaim predicates, as top-level functions so the miss path passes
// pre-existing funcs instead of minting closures.

func psProvisional(v *pageState) bool { return v.provisional }
func psCoinPlaced(v *pageState) bool  { return v.coinPlaced }

// reclaimTier2 evicts the FIFO-oldest Tier-2 resident if it satisfies
// eligible, reporting whether a slot was freed.
//
//gmt:hotpath
func (rt *Runtime) reclaimTier2(eligible func(*pageState) bool) bool {
	v := rt.t2.Victim()
	vps := rt.page(v)
	if !eligible(vps) {
		return false
	}
	rt.t2.Remove(v)
	rt.m.Tier2Evictions++
	rt.discard(v, vps)
	return true
}

func (rt *Runtime) noteEvictionClass(class reuse.Class) {
	rt.recentLong[rt.recentPos] = class == reuse.Long
	rt.recentPos = (rt.recentPos + 1) % len(rt.recentLong)
	if rt.recentN < len(rt.recentLong) {
		rt.recentN++
	}
}

func (rt *Runtime) backfillActive() bool {
	if rt.recentN < len(rt.recentLong) {
		return false
	}
	long := 0
	for _, l := range rt.recentLong {
		if l {
			long++
		}
	}
	return float64(long) > rt.cfg.BackfillThreshold*float64(len(rt.recentLong))
}

// placeInTier2Evicting inserts the victim into Tier-2, evicting Tier-2's
// own replacement victim first if full (TierOrder and Random semantics).
//
//gmt:hotpath
func (rt *Runtime) placeInTier2Evicting(victim tier.PageID, ps *pageState, ready sim.EventFunc, rctx any) {
	var overhead sim.Time
	if rt.t2.Full() {
		t2v := rt.t2.Victim()
		rt.t2.Remove(t2v)
		rt.m.Tier2Evictions++
		rt.discard(t2v, rt.page(t2v))
		// The replacement pass over host-resident metadata delays the
		// warp before it can start the placement transfer.
		overhead = rt.cfg.Tier2EvictOverhead
	}
	rt.placeInTier2Delayed(victim, ps, overhead, ready, rctx)
}

// placeInTier2 moves a Tier-1 victim into host memory: metadata first,
// then the data over PCIe, performed by the evicting warp's threads —
// ready fires when the transfer lands.
//
//gmt:hotpath
func (rt *Runtime) placeInTier2(victim tier.PageID, ps *pageState, ready sim.EventFunc, rctx any) {
	rt.placeInTier2Delayed(victim, ps, 0, ready, rctx)
}

// placement carries one Tier-2 placement through its metadata delay and
// page move. Placements are chunk-allocated and pooled on the Runtime
// and their stages are top-level EventFuncs, mirroring the fetch pool.
type placement struct {
	rt    *Runtime
	ready sim.EventFunc
	rctx  any
}

// placeChunkSize sizes the placement pool's allocation granule.
const placeChunkSize = 16

// placementRun starts the page move to host memory.
//
//gmt:hotpath
func placementRun(ctx any, _ int64) {
	pl := ctx.(*placement)
	pl.rt.mover.MovePageCall(true, gpu.WarpThreads, placementDone, pl, 0)
}

// placementDone recycles the placement and unblocks the evicting fetch.
//
//gmt:hotpath
func placementDone(ctx any, _ int64) {
	pl := ctx.(*placement)
	rt, ready, rctx := pl.rt, pl.ready, pl.rctx
	pl.ready, pl.rctx = nil, nil
	rt.placePool = append(rt.placePool, pl)
	if ready != nil {
		ready(rctx, 0)
	}
}

// newPlacement pops a pooled placement, carving a chunk on a miss.
//
//gmt:coldpath
func (rt *Runtime) newPlacement() *placement {
	n := len(rt.placePool)
	if n == 0 {
		chunk := make([]placement, placeChunkSize)
		for i := range chunk {
			chunk[i].rt = rt
			rt.placePool = append(rt.placePool, &chunk[i])
		}
		n = len(rt.placePool)
	}
	pl := rt.placePool[n-1]
	rt.placePool = rt.placePool[:n-1]
	return pl
}

// placeInTier2Delayed reserves the Tier-2 slot immediately (so
// same-instant evictions cannot double-book it) and starts the data move
// after the given metadata-management delay.
//
//gmt:hotpath
func (rt *Runtime) placeInTier2Delayed(victim tier.PageID, ps *pageState, delay sim.Time, ready sim.EventFunc, rctx any) {
	rt.t2.Insert(victim)
	ps.loc = locTier2
	if rt.nextOcc != nil {
		rt.oracleTrack(rt.t2, &rt.t2Heap, victim, ps)
	}
	ps.placedAt = rt.eng.Now()
	rt.m.EvictionsToTier2++
	rt.m.PagesToHost++
	if rt.cfg.AsyncEviction && ready != nil {
		// §5 future work: the placement proceeds in the background;
		// the faulting warp does not wait for it.
		ready(rctx, 0)
		ready, rctx = nil, nil
	}
	pl := rt.newPlacement()
	pl.ready, pl.rctx = ready, rctx
	if delay > 0 {
		rt.eng.AfterCall(delay, placementRun, pl, 0)
		return
	}
	placementRun(pl, 0)
}

// discard drops a clean page (its home copy on the SSD is current) or
// writes a dirty one back to the drive.
//
//gmt:hotpath
func (rt *Runtime) discard(p tier.PageID, ps *pageState) {
	ps.loc = locSSD
	if ps.dirty {
		ps.dirty = false
		rt.m.EvictionsToSSD++
		rt.ssd.WriteCall(int64(p), rt.cfg.PageSize, sim.CallFunc, nil, 0)
	} else {
		rt.m.EvictionsDropped++
	}
}

// Snapshot reports the run's metrics. Drive counters are folded in.
func (rt *Runtime) Snapshot() stats.Run {
	m := rt.m
	ds := rt.ssd.Stats()
	m.SSDReads = ds.Reads
	m.SSDWrites = ds.Writes
	m.SSDReadBytes = ds.ReadBytes
	m.SSDWriteBytes = ds.WriteBytes
	if rt.sampler != nil {
		m.RegressionBatches = int64(rt.sampler.Batches())
		m.SamplePairs = int64(rt.sampler.Pairs())
	}
	if n := len(rt.reuseNS); n > 0 {
		v := make([]int64, n)
		copy(v, rt.reuseNS)
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		m.Tier2ReuseP50 = sim.Time(v[(n-1)*50/100])
		m.Tier2ReuseP99 = sim.Time(v[(n-1)*99/100])
		m.Tier2ReuseCount = int64(n)
	}
	return m
}

// History reports the recorded metric snapshots (empty unless
// Config.HistorySample is set). Each entry is cumulative up to its
// sample point.
func (rt *Runtime) History() []stats.Run {
	out := make([]stats.Run, len(rt.history))
	copy(out, rt.history)
	return out
}

// Coeffs reports the published VTD->RD regression (PolicyReuse only).
func (rt *Runtime) Coeffs() reuse.Coeffs {
	if rt.sampler == nil {
		return reuse.Coeffs{}
	}
	return rt.sampler.Coeffs()
}

// Tier1Resident reports current Tier-1 occupancy.
func (rt *Runtime) Tier1Resident() int { return rt.t1.Len() }

// Tier2Resident reports current Tier-2 occupancy (0 under PolicyBaM).
func (rt *Runtime) Tier2Resident() int {
	if rt.t2 == nil {
		return 0
	}
	return rt.t2.Len()
}

// CheckInvariants panics if a page is accounted in more than one tier or
// residency counters disagree; tests call it after runs.
func (rt *Runtime) CheckInvariants() {
	t1n, t2n, inflight := 0, 0, 0
	rt.dir.each(func(p tier.PageID, ps *pageState) {
		switch ps.loc {
		case locTier1:
			t1n++
			if !rt.t1.Contains(p) {
				panic(fmt.Sprintf("core: page %d marked Tier-1 but absent from clock", p))
			}
			if rt.t2 != nil && rt.t2.Contains(p) {
				panic(fmt.Sprintf("core: page %d duplicated across tiers", p))
			}
		case locTier2:
			t2n++
			if rt.t2 == nil || !rt.t2.Contains(p) {
				panic(fmt.Sprintf("core: page %d marked Tier-2 but absent", p))
			}
			if rt.t1.Contains(p) {
				panic(fmt.Sprintf("core: page %d duplicated across tiers", p))
			}
		case locInFlight:
			inflight++
		case locSSD:
			if rt.t1.Contains(p) || (rt.t2 != nil && rt.t2.Contains(p)) {
				panic(fmt.Sprintf("core: page %d marked SSD but tier-resident", p))
			}
			if ps.waitHead != nil {
				panic(fmt.Sprintf("core: page %d has stranded waiters", p))
			}
		}
	})
	if t1n != rt.t1.Len() {
		panic(fmt.Sprintf("core: Tier-1 accounting mismatch: %d vs %d", t1n, rt.t1.Len()))
	}
	if rt.t2 != nil && t2n != rt.t2.Len() {
		panic(fmt.Sprintf("core: Tier-2 accounting mismatch: %d vs %d", t2n, rt.t2.Len()))
	}
	if inflight != rt.reserved+rt.slotQueued() {
		panic(fmt.Sprintf("core: reservation mismatch: %d in flight vs %d reserved + %d waiting",
			inflight, rt.reserved, rt.slotQueued()))
	}
}
