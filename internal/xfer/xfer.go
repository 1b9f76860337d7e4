// Package xfer implements the GPU-memory ↔ host-memory page transfer
// mechanisms GMT chooses between (paper §2.3, Figure 6):
//
//   - DMA ("cudaMemcpyAsync"): a single GPU thread programs the copy
//     engine per page. Launches serialize on the engine, so throughput is
//     overhead-bound for large numbers of non-contiguous pages.
//   - Zero-copy: the threads of a warp issue load/store instructions
//     against pinned host memory. Pinning costs a fixed setup per batch,
//     and delivered bandwidth scales with the number of threads employed,
//     so it wins once enough non-contiguous pages (and threads) are
//     available.
//   - Hybrid-XT: zero-copy only when the batch has at least
//     CrossoverPages pages and at least X threads can be employed;
//     otherwise DMA. The paper selects Hybrid-32T.
package xfer

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/pcie"
	"github.com/gmtsim/gmt/internal/sim"
)

// Method names a transfer mechanism.
type Method uint8

// The transfer mechanisms of §2.3.
const (
	DMA Method = iota
	ZeroCopy
)

func (m Method) String() string {
	if m == DMA {
		return "cudaMemcpyAsync"
	}
	return "zero-copy"
}

// Mode selects how the engine picks a method per transfer.
type Mode uint8

// Selection modes.
const (
	ModeHybrid   Mode = iota // Hybrid-XT: the paper's choice
	ModeDMA                  // always cudaMemcpyAsync
	ModeZeroCopy             // always zero-copy
)

// Config calibrates the transfer engines.
type Config struct {
	PageSize int64
	// DMALaunch is the per-copy launch/programming overhead, serialized
	// on the copy engine.
	DMALaunch sim.Time
	// PinOverhead is the per-batch cost of pinning pages before
	// zero-copy.
	PinOverhead sim.Time
	// WarpThreads is the thread count that saturates the link with
	// zero-copy (a full warp).
	WarpThreads int
	// CrossoverPages is the batch size above which zero-copy wins
	// (Figure 6a: 8 pages).
	CrossoverPages int
	// HybridX is the X in Hybrid-XT: the minimum threads required to
	// pick zero-copy.
	HybridX int
	// Mode is the selection mode.
	Mode Mode
}

// DefaultConfig reproduces Figure 6's calibration on Gen3 x16.
func DefaultConfig() Config {
	return Config{
		PageSize:       64 * 1024,
		DMALaunch:      12 * sim.Microsecond,
		PinOverhead:    56 * sim.Microsecond,
		WarpThreads:    32,
		CrossoverPages: 8,
		HybridX:        32,
		Mode:           ModeHybrid,
	}
}

// Choose applies the configured selection rule for a batch of n
// non-contiguous pages with the given threads available.
func (c Config) Choose(n, threads int) Method {
	switch c.Mode {
	case ModeDMA:
		return DMA
	case ModeZeroCopy:
		return ZeroCopy
	default:
		if n >= c.CrossoverPages && threads >= c.HybridX {
			return ZeroCopy
		}
		return DMA
	}
}

// pageTime is the unloaded link occupancy of one page.
func (c Config) pageTime(linkBps int64) sim.Time {
	return c.PageSize * sim.Second / linkBps
}

// DMATime is the closed-form unloaded completion time for n
// non-contiguous pages via per-page cudaMemcpyAsync: launches serialize
// on the copy engine; the final page's data trails the final launch.
func (c Config) DMATime(n int, linkBps int64) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(n)*c.DMALaunch + c.pageTime(linkBps)
}

// ZeroCopyTime is the closed-form unloaded completion time for n
// non-contiguous pages moved by `threads` GPU threads after pinning.
func (c Config) ZeroCopyTime(n, threads int, linkBps int64) sim.Time {
	if n <= 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	if threads > c.WarpThreads {
		threads = c.WarpThreads
	}
	perPage := c.pageTime(linkBps) * sim.Time(c.WarpThreads) / sim.Time(threads)
	return c.PinOverhead + sim.Time(n)*perPage
}

// HybridTime applies Choose and reports the resulting unloaded time.
func (c Config) HybridTime(n, threads int, linkBps int64) (sim.Time, Method) {
	m := c.Choose(n, threads)
	if m == ZeroCopy {
		return c.ZeroCopyTime(n, threads, linkBps), m
	}
	return c.DMATime(n, linkBps), m
}

// Engine performs simulated page transfers between GPU and host memory
// over a PCIe link, tracking outstanding transfers so the Hybrid rule can
// observe batch pressure.
type Engine struct {
	eng  *sim.Engine
	link *pcie.Link
	cfg  Config
	dma  *sim.Server // the single copy engine

	outstanding int
	dmaCount    int64
	zcCount     int64
	pagesUp     int64
	pagesDown   int64

	pool []*move // recycled per-move records

	// Pool conservation counters: every MovePageCall acquires one move
	// record and every completion releases it. They must balance at
	// quiescence (asserted by Reset under -tags gmtinvariants and by the
	// pool-conservation test), so a leaked record fails loudly instead of
	// silently re-growing the pool.
	acquired int64
	released int64
}

// move carries one page transfer through its stages. Moves are pooled on
// the Engine and every stage is a top-level EventFunc with the move as
// context, so steady-state transfers perform no allocation.
type move struct {
	e    *Engine
	pipe *sim.Pipe
	call sim.EventFunc
	ctx  any
	arg  int64
}

// moveEnter runs when the copy engine is granted (DMA path): the launch
// serializes on the engine; data then streams on the link.
//
//gmt:hotpath
func moveEnter(ctx any, _ int64) {
	m := ctx.(*move)
	m.e.eng.AfterCall(m.e.cfg.DMALaunch, moveLaunched, m, 0)
}

// moveLaunched runs after the DMA launch overhead.
//
//gmt:hotpath
func moveLaunched(ctx any, _ int64) {
	m := ctx.(*move)
	m.e.dma.Release()
	m.pipe.TransferCall(m.e.cfg.PageSize, moveFinish, m, 0)
}

// movePinned runs after the zero-copy pin share; arg carries the
// thread-limited byte rate.
//
//gmt:hotpath
func movePinned(ctx any, rate int64) {
	m := ctx.(*move)
	m.pipe.TransferLimitedCall(m.e.cfg.PageSize, rate, moveFinish, m, 0)
}

// moveFinish recycles the move and runs the completion callback.
//
//gmt:hotpath
func moveFinish(ctx any, _ int64) {
	m := ctx.(*move)
	e := m.e
	e.outstanding--
	e.released++
	call, cctx, carg := m.call, m.ctx, m.arg
	m.call, m.ctx, m.pipe = nil, nil, nil
	e.pool = append(e.pool, m)
	if call != nil {
		call(cctx, carg)
	}
}

// moveChunkSize is the pool-miss growth quantum: a miss carves a whole
// chunk of moves so the pool grows in O(peak/chunk) allocations rather
// than one heap object per concurrent transfer.
const moveChunkSize = 16

// newMove pops a pooled move or carves a fresh chunk; pool misses are
// amortized away by reuse.
//
//gmt:coldpath
func (e *Engine) newMove() *move {
	e.acquired++
	n := len(e.pool)
	if n == 0 {
		chunk := make([]move, moveChunkSize)
		for i := range chunk {
			chunk[i].e = e
			e.pool = append(e.pool, &chunk[i])
		}
		n = len(e.pool)
	}
	m := e.pool[n-1]
	e.pool = e.pool[:n-1]
	return m
}

// NewEngine returns a transfer engine over link.
func NewEngine(eng *sim.Engine, link *pcie.Link, cfg Config) *Engine {
	return &Engine{eng: eng, link: link, cfg: cfg, dma: sim.NewServer(eng, 1)}
}

// Config reports the engine calibration.
func (e *Engine) Config() Config { return e.cfg }

// Outstanding reports in-flight Tier-1↔Tier-2 page transfers.
func (e *Engine) Outstanding() int { return e.outstanding }

// MoveRecords reports the pool conservation counters: records acquired
// from and released back to the move pool since construction (or the
// last Reset). At quiescence the two must be equal.
func (e *Engine) MoveRecords() (acquired, released int64) {
	return e.acquired, e.released
}

// Reset returns an idle transfer engine to its freshly constructed
// state, retaining the move pool (moves hold only the engine pointer,
// which is stable). It panics if transfers are outstanding, and asserts
// move-pool conservation under -tags gmtinvariants.
func (e *Engine) Reset() {
	if e.outstanding != 0 {
		panic(fmt.Sprintf("xfer: Reset with %d transfers outstanding", e.outstanding))
	}
	invariant.Assert(e.acquired == e.released,
		"xfer: move pool leak: %d records acquired, %d released", e.acquired, e.released)
	e.dma.Reset()
	e.dmaCount, e.zcCount = 0, 0
	e.pagesUp, e.pagesDown = 0, 0
	e.acquired, e.released = 0, 0
}

// MovePageCall transfers one page between GPU memory and host memory;
// up is toward the host (a Tier-1 eviction into Tier-2), down is toward
// the GPU (a Tier-2 hit). threads is how many GPU threads the requesting
// warp can devote. The method is chosen per the configured mode, using
// the current outstanding-transfer count as the effective batch size.
// call(ctx, arg) runs when the page lands, with no per-move closure.
func (e *Engine) MovePageCall(up bool, threads int, call sim.EventFunc, ctx any, arg int64) {
	e.outstanding++
	batch := e.outstanding
	method := e.cfg.Choose(batch, threads)
	mv := e.newMove()
	mv.pipe = e.link.Down
	if up {
		mv.pipe = e.link.Up
		e.pagesUp++
	} else {
		e.pagesDown++
	}
	mv.call, mv.ctx, mv.arg = call, ctx, arg
	switch method {
	case DMA:
		e.dmaCount++
		e.dma.AcquireCall(moveEnter, mv, 0)
	case ZeroCopy:
		e.zcCount++
		// Pinning is amortized across the batch driving the link; each
		// member pays its share, then the warp's threads stream the
		// page, at reduced rate if under-provisioned.
		share := e.cfg.PinOverhead / sim.Time(batch)
		rate := e.link.BytesPerSecond() * int64(threads) / int64(e.cfg.WarpThreads)
		e.eng.AfterCall(share, movePinned, mv, rate)
	}
}

// Stats is a snapshot of transfer activity.
type Stats struct {
	DMATransfers      int64
	ZeroCopyTransfers int64
	PagesUp           int64 // Tier-1 -> Tier-2
	PagesDown         int64 // Tier-2 -> Tier-1
}

// Stats reports cumulative engine activity.
func (e *Engine) Stats() Stats {
	return Stats{
		DMATransfers:      e.dmaCount,
		ZeroCopyTransfers: e.zcCount,
		PagesUp:           e.pagesUp,
		PagesDown:         e.pagesDown,
	}
}
