// Package baseline implements the CPU-orchestrated 3-tier comparator of
// the paper's §3.6: Linux HMM extending UVM through the host page cache.
//
// The architectural difference from GMT is who orchestrates: every GPU
// demand fault traps to the host, where a small pool of driver fault
// handlers (UVM services a GPU's fault buffer with very limited
// parallelism) performs the lookup, the SSD I/O through the kernel page
// cache, and the host-programmed DMA to GPU memory — all while holding
// the handler. Hundreds of concurrently faulting warps therefore
// serialize behind a few host threads, which is exactly the bottleneck
// BaM (and GMT) demonstrate against.
//
// The package also provides the "optimistic HMM" of §3.6: HMM granted
// GMT-Reuse's Tier-2 hit rate, with its I/O time lowered accordingly.
package baseline

import (
	"fmt"
	"math/rand"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/nvme"
	"github.com/gmtsim/gmt/internal/pcie"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
)

// HMMConfig parameterizes the CPU-orchestrated manager.
type HMMConfig struct {
	Tier1Pages     int
	PageCachePages int // host page cache capacity (the Tier-2 analogue)
	PageSize       int64

	// FootprintPages, when positive, presizes the page directory for the
	// workload footprint so steady-state faults never grow it.
	FootprintPages int

	// FaultHandlers is the host-side fault service parallelism; the UVM
	// driver processes a GPU's fault buffer nearly serially.
	FaultHandlers int
	// PrefetchBlock enables UVM's density-based block prefetcher
	// (NVIDIA's oversubscription tuning, paper ref [12]): a fault
	// migrates the whole aligned block of this many pages in one
	// service, amortizing the fault overhead across neighbors. Zero or
	// one disables it.
	PrefetchBlock int
	// FaultOverhead is the host CPU work per fault (fault buffer
	// processing, page table + TLB maintenance).
	FaultOverhead sim.Time
	// DMALaunch is the host cost to program one DMA copy.
	DMALaunch sim.Time

	HostLanes int
	SSD       nvme.Config

	// ForcedHitRate, when in [0,1], overrides page-cache membership with
	// a coin of that bias — the §3.6 "optimistic HMM" device. Negative
	// disables it.
	ForcedHitRate float64
	Seed          int64
}

// DefaultHMMConfig mirrors the paper's platform.
func DefaultHMMConfig() HMMConfig {
	return HMMConfig{
		Tier1Pages:     1024,
		PageCachePages: 4096,
		PageSize:       64 * 1024,
		FaultHandlers:  2,
		FaultOverhead:  30 * sim.Microsecond,
		DMALaunch:      10 * sim.Microsecond,
		HostLanes:      16,
		SSD:            nvme.DefaultConfig(),
		ForcedHitRate:  -1,
		Seed:           1,
	}
}

type hmmLoc uint8

const (
	hmmSSD hmmLoc = iota
	hmmTier1
	hmmInFlight
)

type hmmPage struct {
	loc          hmmLoc
	dirty        bool
	pendingDirty bool
	cached       bool // resident in the host page cache (inclusive)
	cacheDirty   bool
	// waiters are the warp completions parked on an in-flight fill. The
	// backing arrays cycle through waiterPool so a fault-heavy run stops
	// allocating them once the peak is reached.
	waiters []hmmWaiter
}

// hmmWaiter is one access completion parked on an in-flight fill:
// call(ctx, arg) runs when the page installs.
type hmmWaiter struct {
	call sim.EventFunc
	ctx  any
	arg  int64
}

// hmmPageDir is the dense page-metadata table: a PageID-indexed slice of
// *hmmPage backed by a chunked arena (pointer stability — fault records
// hold *hmmPage across simulated events). It replaces the former map so
// steady-state lookups neither hash nor allocate.
type hmmPageDir struct {
	dir    []*hmmPage
	chunks [][]hmmPage
	cursor int // fill position in the newest chunk
}

// hmmPageChunkSize is the arena growth quantum (structs per chunk).
const hmmPageChunkSize = 1024

// reserve presizes the index for an n-page footprint.
func (d *hmmPageDir) reserve(n int) {
	if n > len(d.dir) {
		nv := make([]*hmmPage, n)
		copy(nv, d.dir)
		d.dir = nv
	}
}

// lookup returns p's state, creating it (on the SSD, clean) on first
// reference.
//
//gmt:hotpath
func (d *hmmPageDir) lookup(p tier.PageID) *hmmPage {
	if uint64(p) < uint64(len(d.dir)) {
		if ps := d.dir[p]; ps != nil {
			return ps
		}
	}
	return d.lookupSlow(p)
}

// lookupSlow handles first references and index growth, both amortized
// off the fault steady state.
//
//gmt:coldpath
func (d *hmmPageDir) lookupSlow(p tier.PageID) *hmmPage {
	if p < 0 {
		panic(fmt.Sprintf("baseline: negative page id %d", p))
	}
	if int64(p) >= int64(len(d.dir)) {
		size := len(d.dir)
		if size < 64 {
			size = 64
		}
		for int64(size) <= int64(p) {
			size *= 2
		}
		d.reserve(size)
	}
	if ps := d.dir[p]; ps != nil {
		return ps
	}
	if len(d.chunks) == 0 || d.cursor == hmmPageChunkSize {
		d.chunks = append(d.chunks, make([]hmmPage, hmmPageChunkSize))
		d.cursor = 0
	}
	ps := &d.chunks[len(d.chunks)-1][d.cursor]
	d.cursor++
	d.dir[p] = ps
	return ps
}

// HMM is the CPU-orchestrated 3-tier memory manager.
type HMM struct {
	eng      *sim.Engine
	cfg      HMMConfig
	ssd      *nvme.Disk
	link     *pcie.Link
	handlers *sim.Server
	dma      *sim.Server

	t1    *tier.Clock
	cache *tier.Clock // host page cache, LRU-approximated by clock

	pages    hmmPageDir
	reserved int
	rng      *rand.Rand

	// Free-listed fault/serve records and recycled waiter arrays: the
	// whole fault pipeline reuses them, so a miss-heavy run schedules no
	// per-fault heap objects once the in-flight peak is reached.
	faultPool  []*hmmFault
	servePool  []*hmmServe
	waiterPool [][]hmmWaiter

	m stats.Run
}

var _ gpu.MemoryManager = (*HMM)(nil)

// NewHMM builds the manager and its devices on eng.
func NewHMM(eng *sim.Engine, cfg HMMConfig) *HMM {
	if cfg.Tier1Pages < 1 || cfg.PageCachePages < 1 {
		panic("baseline: tier capacities must be >= 1")
	}
	h := &HMM{
		eng:      eng,
		cfg:      cfg,
		ssd:      nvme.New(eng, cfg.SSD),
		link:     pcie.NewLink(eng, cfg.HostLanes),
		handlers: sim.NewServer(eng, cfg.FaultHandlers),
		dma:      sim.NewServer(eng, 1),
		t1:       tier.NewClock(cfg.Tier1Pages),
		cache:    tier.NewClock(cfg.PageCachePages),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.FootprintPages > 0 {
		h.pages.reserve(cfg.FootprintPages)
	}
	h.m.Policy = "HMM"
	if cfg.ForcedHitRate >= 0 {
		h.m.Policy = "HMM-optimistic"
	}
	return h
}

// SSD exposes the simulated drive.
func (h *HMM) SSD() *nvme.Disk { return h.ssd }

//gmt:hotpath
func (h *HMM) page(p tier.PageID) *hmmPage {
	return h.pages.lookup(p)
}

// hmmFault carries one fault service through the handler pipeline:
// handler slot → fault overhead → block selection → one hmmServe per
// member → handler release when the last member lands. Records are
// pooled on the HMM and every stage is a top-level EventFunc with the
// fault as context.
type hmmFault struct {
	h         *HMM
	page      tier.PageID
	remaining int
	members   []tier.PageID // capacity reused across services
}

// hmmServe carries one member page's migration: page-cache probe → SSD
// read (on a cache miss) → DMA program → link transfer → install.
type hmmServe struct {
	h     *HMM
	fault *hmmFault
	page  tier.PageID
	ps    *hmmPage
}

// Pool-miss growth quanta: a miss carves a whole chunk so the pools grow
// in O(peak/chunk) allocations.
const (
	hmmFaultChunkSize = 16
	hmmServeChunkSize = 32
)

//gmt:hotpath
func (h *HMM) newFault() *hmmFault {
	if n := len(h.faultPool); n > 0 {
		fr := h.faultPool[n-1]
		h.faultPool = h.faultPool[:n-1]
		return fr
	}
	return h.newFaultChunk()
}

//gmt:coldpath
func (h *HMM) newFaultChunk() *hmmFault {
	chunk := make([]hmmFault, hmmFaultChunkSize)
	for i := range chunk {
		chunk[i].h = h
		if i > 0 {
			h.faultPool = append(h.faultPool, &chunk[i])
		}
	}
	return &chunk[0]
}

//gmt:hotpath
func (h *HMM) newServe() *hmmServe {
	if n := len(h.servePool); n > 0 {
		sv := h.servePool[n-1]
		h.servePool = h.servePool[:n-1]
		return sv
	}
	return h.newServeChunk()
}

//gmt:coldpath
func (h *HMM) newServeChunk() *hmmServe {
	chunk := make([]hmmServe, hmmServeChunkSize)
	for i := range chunk {
		chunk[i].h = h
		if i > 0 {
			h.servePool = append(h.servePool, &chunk[i])
		}
	}
	return &chunk[0]
}

// Access implements gpu.MemoryManager. A Tier-1 hit completes inline
// and returns true, exactly like GMT's; anything else parks call(ctx,
// arg) on the page until its fill lands.
//
//gmt:hotpath
func (h *HMM) Access(a gpu.Access, call sim.EventFunc, ctx any, arg int64) bool {
	h.m.Accesses++
	ps := h.page(a.Page)
	switch ps.loc {
	case hmmTier1:
		h.m.Tier1Hits++
		h.t1.Touch(a.Page)
		if a.Write {
			ps.dirty = true
		}
		return true
	case hmmInFlight:
		h.m.InFlightJoins++
		if a.Write {
			ps.pendingDirty = true
		}
		h.queueWaiter(ps, call, ctx, arg)
	case hmmSSD:
		ps.loc = hmmInFlight
		if a.Write {
			ps.pendingDirty = true
		}
		h.queueWaiter(ps, call, ctx, arg)
		h.fault(a.Page)
	}
	return false
}

// queueWaiter parks a completion on ps, reusing a pooled backing array
// for the first waiter of a fill cycle.
//
//gmt:hotpath
func (h *HMM) queueWaiter(ps *hmmPage, call sim.EventFunc, ctx any, arg int64) {
	if ps.waiters == nil {
		if n := len(h.waiterPool); n > 0 {
			ps.waiters = h.waiterPool[n-1]
			h.waiterPool = h.waiterPool[:n-1]
		}
	}
	ps.waiters = append(ps.waiters, hmmWaiter{call, ctx, arg})
}

// fault is the host-side service path. The handler is held from fault
// receipt until the migration is mapped on the GPU — the serialization
// that makes CPU orchestration unable to feed a GPU's parallelism. With
// PrefetchBlock set, the whole aligned block migrates in one service
// (UVM's density prefetcher): one fault overhead amortized across
// members, but the handler is held until the full block lands.
//
//gmt:hotpath
func (h *HMM) fault(p tier.PageID) {
	fr := h.newFault()
	fr.page = p
	h.handlers.AcquireCall(hmmFaultGranted, fr, 0)
}

// hmmFaultGranted runs when a host fault handler is granted.
//
//gmt:hotpath
func hmmFaultGranted(ctx any, _ int64) {
	fr := ctx.(*hmmFault)
	fr.h.eng.AfterCall(fr.h.cfg.FaultOverhead, hmmFaultHeld, fr, 0)
}

// hmmFaultHeld runs after the fault overhead: select the block and start
// every member's migration.
//
//gmt:hotpath
func hmmFaultHeld(ctx any, _ int64) {
	fr := ctx.(*hmmFault)
	h := fr.h
	h.blockMembers(fr)
	fr.remaining = len(fr.members)
	for i, q := range fr.members {
		h.servePage(q, h.page(q), i == 0, fr)
	}
}

// blockMembers fills fr.members with the demanded page plus SSD-resident
// neighbors of its aligned block that fit in free Tier-1 capacity.
//
//gmt:hotpath
func (h *HMM) blockMembers(fr *hmmFault) {
	fr.members = append(fr.members[:0], fr.page)
	if h.cfg.PrefetchBlock <= 1 {
		return
	}
	b := tier.PageID(h.cfg.PrefetchBlock)
	base := fr.page - fr.page%b
	for q := base; q < base+b; q++ {
		if q == fr.page {
			continue
		}
		qs := h.page(q)
		if qs.loc != hmmSSD {
			continue
		}
		if h.t1.Len()+h.reserved+len(fr.members) >= h.t1.Capacity() {
			break // never evict for speculation
		}
		qs.loc = hmmInFlight
		fr.members = append(fr.members, q)
		h.m.Prefetches++
	}
}

// servePage migrates one page to the GPU: from the host page cache if
// present, else through the drive. Only demanded pages enter the
// hit/fill access breakdown; speculative block members are tallied as
// prefetches.
//
//gmt:hotpath
func (h *HMM) servePage(p tier.PageID, ps *hmmPage, demand bool, fr *hmmFault) {
	h.makeRoom()
	h.reserved++
	sv := h.newServe()
	sv.fault, sv.page, sv.ps = fr, p, ps
	if h.cacheHit(ps) {
		if demand {
			h.m.Tier2Hits++
		}
		h.copyToGPU(sv)
		return
	}
	if demand {
		h.m.SSDFills++
	}
	h.ssd.ReadCall(int64(p), h.cfg.PageSize, hmmReadDone, sv, 0)
}

//gmt:hotpath
func (h *HMM) cacheHit(ps *hmmPage) bool {
	if h.cfg.ForcedHitRate >= 0 {
		return h.rng.Float64() < h.cfg.ForcedHitRate
	}
	return ps.cached
}

// hmmReadDone runs when the drive posts the fill's completion.
//
//gmt:hotpath
func hmmReadDone(ctx any, _ int64) {
	sv := ctx.(*hmmServe)
	sv.h.insertCache(sv.page, sv.ps)
	sv.h.copyToGPU(sv)
}

// insertCache records the page in the (inclusive) host page cache,
// evicting under clock if full.
//
//gmt:hotpath
func (h *HMM) insertCache(p tier.PageID, ps *hmmPage) {
	if ps.cached {
		h.cache.Touch(p)
		return
	}
	if h.cache.Full() {
		v := h.cache.Victim()
		h.cache.Remove(v)
		vps := h.page(v)
		vps.cached = false
		h.m.Tier2Evictions++
		if vps.cacheDirty {
			vps.cacheDirty = false
			h.ssd.WriteCall(int64(v), h.cfg.PageSize, sim.CallFunc, nil, 0)
		}
	}
	h.cache.Insert(p)
	ps.cached = true
}

// copyToGPU programs the host DMA engine and streams the page down.
//
//gmt:hotpath
func (h *HMM) copyToGPU(sv *hmmServe) {
	h.dma.AcquireCall(hmmDMAGranted, sv, 0)
}

// hmmDMAGranted runs when the (single) host DMA engine is granted.
//
//gmt:hotpath
func hmmDMAGranted(ctx any, _ int64) {
	sv := ctx.(*hmmServe)
	sv.h.eng.AfterCall(sv.h.cfg.DMALaunch, hmmDMAProgrammed, sv, 0)
}

// hmmDMAProgrammed runs when the copy has been programmed: release the
// engine for the next programmer and stream the page down the link.
//
//gmt:hotpath
func hmmDMAProgrammed(ctx any, _ int64) {
	sv := ctx.(*hmmServe)
	h := sv.h
	h.dma.Release()
	h.link.Down.TransferCall(h.cfg.PageSize, hmmPageArrived, sv, 0)
}

// hmmPageArrived runs when the page lands in GPU memory: install it,
// wake the waiters, and release the fault handler once the last block
// member is mapped. The serve record is recycled before install (its
// payload is saved first), so a re-fault triggered downstream may reuse
// it.
//
//gmt:hotpath
func hmmPageArrived(ctx any, _ int64) {
	sv := ctx.(*hmmServe)
	h := sv.h
	h.m.PagesToGPU++
	p, ps, fr := sv.page, sv.ps, sv.fault
	sv.fault, sv.ps = nil, nil
	h.servePool = append(h.servePool, sv)
	h.install(p, ps)
	fr.remaining--
	if fr.remaining == 0 {
		h.handlers.Release()
		fr.members = fr.members[:0]
		h.faultPool = append(h.faultPool, fr)
	}
}

//gmt:hotpath
func (h *HMM) install(p tier.PageID, ps *hmmPage) {
	h.reserved--
	h.t1.Insert(p)
	ps.loc = hmmTier1
	ps.dirty = ps.pendingDirty
	ps.pendingDirty = false
	waiters := ps.waiters
	ps.waiters = nil
	for i, w := range waiters {
		waiters[i] = hmmWaiter{}
		w.call(w.ctx, w.arg)
	}
	if waiters != nil {
		h.waiterPool = append(h.waiterPool, waiters[:0])
	}
}

// makeRoom evicts a Tier-1 victim if needed. Victims migrate back to the
// host: dirty data crosses the link and dirties the page cache copy;
// clean pages are simply unmapped (their cache or SSD copy is current).
//
//gmt:hotpath
func (h *HMM) makeRoom() {
	if h.t1.Len()+h.reserved < h.t1.Capacity() {
		return
	}
	if h.t1.Len() == 0 {
		panic("baseline: Tier-1 exhausted by reservations")
	}
	v := h.t1.Victim()
	h.t1.Remove(v)
	vps := h.page(v)
	vps.loc = hmmSSD
	if vps.dirty {
		vps.dirty = false
		h.m.EvictionsToTier2++
		h.m.PagesToHost++
		h.link.Up.TransferCall(h.cfg.PageSize, sim.CallFunc, nil, 0)
		if !vps.cached {
			h.insertCache(v, vps)
		}
		vps.cacheDirty = true
	} else {
		h.m.EvictionsDropped++
	}
}

// Snapshot reports run metrics.
func (h *HMM) Snapshot() stats.Run {
	m := h.m
	ds := h.ssd.Stats()
	m.SSDReads = ds.Reads
	m.SSDWrites = ds.Writes // authoritative drive counter
	m.SSDReadBytes = ds.ReadBytes
	m.SSDWriteBytes = ds.WriteBytes
	return m
}

// CheckInvariants panics on inconsistent residency accounting.
func (h *HMM) CheckInvariants() {
	t1n, cached, inflight := 0, 0, 0
	for i, ps := range h.pages.dir {
		if ps == nil {
			continue
		}
		p := tier.PageID(i)
		if ps.loc == hmmTier1 {
			t1n++
			if !h.t1.Contains(p) {
				panic("baseline: Tier-1 accounting mismatch")
			}
		}
		if ps.loc == hmmInFlight {
			inflight++
		}
		if ps.cached {
			cached++
			if !h.cache.Contains(p) {
				panic("baseline: page cache accounting mismatch")
			}
		}
	}
	if t1n != h.t1.Len() || cached != h.cache.Len() || inflight != h.reserved {
		panic("baseline: residency counters disagree")
	}
}
