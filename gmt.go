// Package gmt is the public API of the GMT reproduction: a
// GPU-orchestrated three-tier memory runtime (GPU memory, host memory,
// NVMe SSD) evaluated on a deterministic discrete-event simulation of
// the paper's platform.
//
// The package lets a user run any of the paper's placement policies
// (BaM's 2-tier baseline, GMT-TierOrder, GMT-Random, GMT-Reuse) and the
// CPU-orchestrated HMM comparator over the paper's nine applications —
// or over custom page-access traces — and inspect wall time, hit
// breakdowns, SSD traffic, and predictor accuracy.
//
//	cfg := gmt.DefaultConfig()
//	cfg.Policy = gmt.Reuse
//	for _, w := range gmt.Suite(gmt.DefaultScale()) {
//		res := gmt.Run(cfg, w)
//		fmt.Println(w.Name(), res.WallTime, res.Tier2HitRate)
//	}
//
// Internals (the simulation substrates, policies, and experiment
// drivers) live under internal/; see DESIGN.md for the system inventory.
package gmt

import (
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/gmtsim/gmt/internal/baseline"
	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
)

// Policy selects the memory-tiering system to simulate.
type Policy int

// The systems evaluated in the paper.
const (
	// BaM is the 2-tier GPU-orchestrated baseline (GPU memory + SSD).
	BaM Policy = iota
	// TierOrder places every Tier-1 victim into host memory (§2.1.1).
	TierOrder
	// Random coin-flips victims between host memory and SSD (§2.1.2).
	Random
	// Reuse is GMT-Reuse: RRD-predicted placement (§2.1.3).
	Reuse
	// HMM is the CPU-orchestrated 3-tier comparator (§3.6).
	HMM
	// Oracle is the offline Belady-style upper bound GMT-Reuse
	// approximates: victim selection and placement with perfect future
	// knowledge of the trace.
	Oracle
)

func (p Policy) String() string {
	switch p {
	case BaM:
		return "BaM"
	case TierOrder:
		return "GMT-TierOrder"
	case Random:
		return "GMT-Random"
	case Reuse:
		return "GMT-Reuse"
	case HMM:
		return "HMM"
	case Oracle:
		return "GMT-Oracle"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Access is one coalesced 64 KiB-page reference issued by a warp: a
// Page (int64) and whether the access is a Write. It is the simulator's
// own access type, so a trace runs as it is, without a copy.
type Access = gpu.Access

// Workload supplies a named, deterministic page-access trace.
type Workload interface {
	Name() string
	// Pages is the dataset footprint in pages.
	Pages() int64
	// Trace returns the full access sequence.
	Trace() []Access
}

// Scale sizes workloads relative to the memory tiers, in 64 KiB pages.
type Scale struct {
	Tier1Pages       int
	Tier2Pages       int
	Oversubscription float64
	// DatasetSeed seeds dataset synthesis (Kronecker graph generation,
	// the KV-serving request mix). Zero means the historical default
	// seed 42, so existing scales produce byte-identical datasets.
	DatasetSeed int64
}

// DefaultScale is the paper's default configuration (Tier-2 = 4x
// Tier-1, oversubscription factor 2) at 1/256 of the paper's absolute
// capacities.
func DefaultScale() Scale {
	s := workload.DefaultScale()
	return Scale{Tier1Pages: s.Tier1Pages, Tier2Pages: s.Tier2Pages, Oversubscription: s.Oversubscription}
}

func (s Scale) internal() workload.Scale {
	return workload.Scale{
		Tier1Pages:       s.Tier1Pages,
		Tier2Pages:       s.Tier2Pages,
		Oversubscription: s.Oversubscription,
		DatasetSeed:      s.DatasetSeed,
	}
}

// Config parameterizes a simulation run.
type Config struct {
	Policy Policy

	// Tier capacities in 64 KiB pages.
	Tier1Pages int
	Tier2Pages int

	// Warps is the number of concurrently executing warps;
	// ComputePerAccess is each warp's busy time per coalesced access.
	Warps            int
	ComputePerAccess time.Duration

	// Seed drives all randomized decisions.
	Seed int64

	// GMT-Reuse knobs (ignored by other policies): the VTD sampling
	// pipeline and §2.2's backfill heuristic. Zero values take the
	// paper defaults; set BackfillThreshold above 1 to disable the
	// heuristic.
	SampleTarget      int
	SampleBatch       int
	BackfillThreshold float64

	// AsyncEviction performs Tier-1 -> Tier-2 placements in the
	// background (the paper's §5 future-work direction).
	AsyncEviction bool
	// PrefetchDegree enables sequential prefetch of up to this many
	// successor pages on each demand SSD fill (never evicting for
	// them).
	PrefetchDegree int
	// HistorySample, when positive, records a HistoryPoint every that
	// many accesses into Result.History (GMT policies only). Useful
	// for warmup curves.
	HistorySample int

	// Tier2Policy selects the Tier-2 replacement policy by name
	// ("clock", "fifo", "lru-2", "2q"). Empty keeps the historical
	// per-policy defaults. Ignored by BaM (no Tier-2) and HMM (the
	// comparator manages its own page cache). Run panics on an unknown
	// name; validate external input with tier.ParseStorePolicy via the
	// serving API instead.
	Tier2Policy string

	// TrackTier2Reuse records time-to-first-reuse for every Tier-2
	// reload and reports the percentiles in Result.Tier2ReuseP50/P99.
	TrackTier2Reuse bool
}

// HistoryPoint is a cumulative metrics snapshot partway through a run.
type HistoryPoint struct {
	Accesses     int64
	Tier1Hits    int64
	Tier2Hits    int64
	SSDReads     int64
	Tier2HitRate float64
}

// DefaultConfig mirrors the paper's default platform at DefaultScale.
func DefaultConfig() Config {
	s := DefaultScale()
	g := gpu.DefaultConfig()
	return Config{
		Policy:           Reuse,
		Tier1Pages:       s.Tier1Pages,
		Tier2Pages:       s.Tier2Pages,
		Warps:            g.Warps,
		ComputePerAccess: time.Duration(g.ComputePerAccess),
		Seed:             1,
	}
}

// Result reports a run's outcome. WallTime is virtual (simulated) time.
type Result struct {
	App    string
	Policy string

	WallTime time.Duration

	Accesses      int64
	Tier1Hits     int64
	Tier2Hits     int64
	SSDFills      int64
	InFlightJoins int64

	Tier2Lookups    int64
	WastefulLookups int64

	EvictionsToTier2 int64
	EvictionsToSSD   int64
	EvictionsDropped int64
	BackfillPlaced   int64

	SSDReads, SSDWrites int64
	PagesToHost         int64
	PagesToGPU          int64

	Predictions        int64
	PredictionAccuracy float64
	Tier2HitRate       float64

	// Tier-2 time-to-first-reuse percentiles (virtual time), populated
	// only when Config.TrackTier2Reuse is set and at least one Tier-2
	// reload occurred; Tier2ReuseCount is the sample count.
	Tier2ReuseP50   time.Duration
	Tier2ReuseP99   time.Duration
	Tier2ReuseCount int64

	// History holds periodic snapshots when Config.HistorySample is
	// set (empty otherwise).
	History []HistoryPoint
}

func fromStats(m stats.Run) Result {
	return Result{
		App:                m.App,
		Policy:             m.Policy,
		WallTime:           time.Duration(m.WallTime),
		Accesses:           m.Accesses,
		Tier1Hits:          m.Tier1Hits,
		Tier2Hits:          m.Tier2Hits,
		SSDFills:           m.SSDFills,
		InFlightJoins:      m.InFlightJoins,
		Tier2Lookups:       m.Tier2Lookups,
		WastefulLookups:    m.WastefulLookups,
		EvictionsToTier2:   m.EvictionsToTier2,
		EvictionsToSSD:     m.EvictionsToSSD,
		EvictionsDropped:   m.EvictionsDropped,
		BackfillPlaced:     m.BackfillPlaced,
		SSDReads:           m.SSDReads,
		SSDWrites:          m.SSDWrites,
		PagesToHost:        m.PagesToHost,
		PagesToGPU:         m.PagesToGPU,
		Predictions:        m.Predictions,
		PredictionAccuracy: m.PredictionAccuracy(),
		Tier2HitRate:       m.Tier2HitRate(),
		Tier2ReuseP50:      time.Duration(m.Tier2ReuseP50),
		Tier2ReuseP99:      time.Duration(m.Tier2ReuseP99),
		Tier2ReuseCount:    m.Tier2ReuseCount,
	}
}

// Speedup reports base's wall time over r's: how much faster r is.
func (r Result) Speedup(base Result) float64 {
	if r.WallTime == 0 {
		return 0
	}
	return float64(base.WallTime) / float64(r.WallTime)
}

// Run simulates workload w under cfg.
//
//gmt:blocking
func Run(cfg Config, w Workload) Result {
	return RunTrace(cfg, w.Name(), w.Trace())
}

// RunTrace simulates a custom access trace under cfg on a fresh Runner.
func RunTrace(cfg Config, name string, trace []Access) Result {
	return new(Runner).RunTrace(cfg, name, trace)
}

// Runner simulates traces one after another on recycled state: its
// engine and its GMT runtime with the GPU driving it survive each run
// and are reset in place for the next, so a warm Runner's run allocates
// nothing that grows with the trace. HMM runs reuse the engine only.
// A run reads the caller's trace in place and keeps no reference to it
// after RunTrace returns. Every run equals the same run on a fresh
// Runner. The zero value is ready to use; a Runner is not safe for
// concurrent use, and one whose run panicked must not be reused.
type Runner struct {
	eng    *sim.Engine
	rt     *core.Runtime
	gpu    *gpu.GPU
	stream gpu.SliceStream
}

// RunTrace simulates a custom access trace under cfg.
func (r *Runner) RunTrace(cfg Config, name string, trace []Access) Result {
	footprint := 0
	for _, a := range trace {
		if int(a.Page)+1 > footprint {
			footprint = int(a.Page) + 1
		}
	}
	r.stream = gpu.SliceStream{Trace: trace}
	gcfg := gpuConfig(cfg)
	if r.eng == nil {
		r.eng = sim.NewEngine()
	} else {
		r.eng.Reset()
	}
	var m stats.Run
	var history []stats.Run
	if cfg.Policy == HMM {
		hm := baseline.NewHMM(r.eng, hmmConfig(cfg))
		r.launch(gpu.New(r.eng, gcfg, &r.stream, hm))
		m = hm.Snapshot()
	} else {
		c := coreConfig(cfg, footprint, trace)
		if r.rt == nil {
			r.rt = core.NewRuntime(r.eng, c)
			r.gpu = gpu.New(r.eng, gcfg, &r.stream, r.rt)
		} else {
			r.rt.Reset(c)
			r.gpu.Reset(gcfg, &r.stream)
		}
		r.launch(r.gpu)
		m = r.rt.Snapshot()
		if cfg.HistorySample > 0 {
			history = r.rt.History()
		}
	}
	r.stream = gpu.SliceStream{}
	m.App = name
	m.WallTime = r.eng.Now()
	res := fromStats(m)
	for _, h := range history {
		res.History = append(res.History, HistoryPoint{
			Accesses:     h.Accesses,
			Tier1Hits:    h.Tier1Hits,
			Tier2Hits:    h.Tier2Hits,
			SSDReads:     h.SSDReads,
			Tier2HitRate: h.Tier2HitRate(),
		})
	}
	return res
}

// launch runs g's kernel on the Runner's engine to completion.
func (r *Runner) launch(g *gpu.GPU) {
	g.Launch()
	r.eng.Run()
	if !g.Done() {
		panic("gmt: kernel did not finish (deadlocked configuration)")
	}
}

// gpuConfig maps cfg onto the GPU's: zero warps or compute keep the
// defaults.
func gpuConfig(cfg Config) gpu.Config {
	g := gpu.DefaultConfig()
	if cfg.Warps > 0 {
		g.Warps = cfg.Warps
	}
	if cfg.ComputePerAccess > 0 {
		g.ComputePerAccess = sim.Time(cfg.ComputePerAccess)
	}
	return g
}

// hmmConfig maps cfg onto the HMM comparator's config.
func hmmConfig(cfg Config) baseline.HMMConfig {
	h := baseline.DefaultHMMConfig()
	h.Tier1Pages = cfg.Tier1Pages
	h.PageCachePages = cfg.Tier2Pages
	h.Seed = cfg.Seed
	return h
}

// coreConfig maps cfg onto the GMT runtime's config for a kernel over
// trace whose page IDs lie below footprint. Zero sampling and backfill
// knobs keep the paper defaults.
func coreConfig(cfg Config, footprint int, trace []gpu.Access) core.Config {
	c := core.DefaultConfig()
	c.Policy = internalPolicy(cfg.Policy)
	c.Tier1Pages = cfg.Tier1Pages
	c.Tier2Pages = cfg.Tier2Pages
	c.Seed = cfg.Seed
	c.AsyncEviction = cfg.AsyncEviction
	c.PrefetchDegree = cfg.PrefetchDegree
	c.HistorySample = cfg.HistorySample
	c.TrackTier2Reuse = cfg.TrackTier2Reuse
	if cfg.Tier2Policy != "" {
		p, err := tier.ParseStorePolicy(cfg.Tier2Policy)
		if err != nil {
			panic("gmt: " + err.Error())
		}
		c.Tier2Policy = p
	}
	// Presize the runtime's dense page directory to the trace's page-ID
	// bound so the per-access path never grows it.
	c.FootprintPages = footprint
	if cfg.SampleTarget > 0 {
		c.SampleTarget = cfg.SampleTarget
	}
	if cfg.SampleBatch > 0 {
		c.SampleBatch = cfg.SampleBatch
	}
	if cfg.BackfillThreshold > 0 {
		c.BackfillThreshold = cfg.BackfillThreshold
	}
	if cfg.Policy == Oracle {
		c.Future = core.OracleFuture(trace)
	}
	return c
}

func internalPolicy(p Policy) core.PolicyKind {
	switch p {
	case BaM:
		return core.PolicyBaM
	case TierOrder:
		return core.PolicyTierOrder
	case Random:
		return core.PolicyRandom
	case Reuse:
		return core.PolicyReuse
	case Oracle:
		return core.PolicyOracle
	default:
		panic(fmt.Sprintf("gmt: policy %v has no core runtime", p))
	}
}

// wrapped adapts an internal workload to the public interface.
type wrapped struct {
	inner workload.Workload
}

func (w wrapped) Name() string { return w.inner.Name() }
func (w wrapped) Pages() int64 { return w.inner.Pages() }

// Trace returns a trace the caller owns: KVServe's trace is memoized, so
// it is copied.
func (w wrapped) Trace() []Access {
	tr := w.inner.Trace()
	if _, memo := w.inner.(*workload.KVServeWorkload); memo {
		tr = slices.Clone(tr)
	}
	return tr
}

// Suite builds the paper's nine applications (Table 2) at the given
// scale, in Table 2 order.
func Suite(s Scale) []Workload {
	ws := workload.All(s.internal())
	out := make([]Workload, len(ws))
	for i, w := range ws {
		out[i] = wrapped{inner: w}
	}
	return out
}

// KVServe builds the tiered KV-cache serving workload at the given
// scale: an open-loop LLM-serving trace where pages are KV blocks (see
// internal/workload's generator). It is not part of Suite's nine
// applications; the serving-policy experiment requests it explicitly.
func KVServe(s Scale) Workload {
	return wrapped{inner: workload.NewKVServe(s.internal())}
}

// WorkloadNames lists the suite's application names in Table 2 order.
func WorkloadNames() []string {
	out := make([]string, len(workload.Names))
	copy(out, workload.Names)
	return out
}

// Characteristics summarizes a workload the way the paper's Table 2 and
// Figure 7 do.
type Characteristics struct {
	App           string
	Accesses      int64
	DistinctPages int64
	ReusePct      float64
	// Fractions of eviction-time Remaining Reuse Distances falling in
	// each tier's range.
	EvictTier1, EvictTier2, EvictTier3 float64
}

// WriteTrace serializes a trace in the line-oriented gmt-trace format
// ("R <page>" / "W <page>" lines under a "# gmt-trace v1" header).
func WriteTrace(w io.Writer, trace []Access) error { return workload.WriteTrace(w, trace) }

// ReadTrace parses a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Access, error) { return workload.ReadTrace(r) }

// Analyze computes workload characteristics against a scale.
func Analyze(w Workload, s Scale) Characteristics {
	a := workload.Analyze(w.Name(), w.Trace(), s.internal(), 64*1024, 0)
	c := Characteristics{
		App:           w.Name(),
		Accesses:      a.Accesses,
		DistinctPages: a.DistinctPages,
		ReusePct:      a.ReusePct(),
	}
	c.EvictTier1, c.EvictTier2, c.EvictTier3 = a.EvictFractions()
	return c
}
