// Package gpu models the SIMT execution of a GPU kernel at the
// granularity GMT operates on: coalesced per-warp accesses to 64 KiB
// pages. Warps issue accesses from a workload stream, perform a fixed
// amount of compute per access, and stall on demand misses until the
// memory manager (BaM, HMM, or GMT) delivers the page. Because many warps
// run concurrently, misses from different warps overlap — the access
// parallelism that GPU-orchestrated tiering exists to serve.
package gpu

import (
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// WarpThreads is the SIMT width: the threads of a warp coalesce into one
// page access and can jointly drive zero-copy transfers.
const WarpThreads = 32

// Access is one coalesced page reference.
type Access struct {
	Page  tier.PageID
	Write bool
}

// BarrierPage is a sentinel: an Access with this page is a kernel-wide
// barrier (a kernel-launch boundary or grid sync). Every warp must
// arrive before any may continue — the synchronization structure of
// iterative kernels (stencil sweeps, BFS levels), which bounds how much
// miss latency can overlap across iterations.
const BarrierPage tier.PageID = -1

// Barrier is the barrier access value.
var Barrier = Access{Page: BarrierPage}

// IsBarrier reports whether a is a barrier token.
func (a Access) IsBarrier() bool { return a.Page == BarrierPage }

// Stream supplies a kernel's coalesced access sequence. Implementations
// are the workload generators; warps consume the stream in order, so the
// global access order (and therefore VTD/RRD semantics) is preserved
// while execution is spread across warps.
type Stream interface {
	// Next reports the next access; ok is false when the kernel is done.
	Next() (a Access, ok bool)
}

// SliceStream adapts a fixed trace to a Stream.
type SliceStream struct {
	Trace []Access
	pos   int
}

// Next implements Stream.
func (s *SliceStream) Next() (Access, bool) {
	if s.pos >= len(s.Trace) {
		return Access{}, false
	}
	a := s.Trace[s.pos]
	s.pos++
	return a, true
}

// MemoryManager resolves coalesced accesses (BaM, GMT and HMM all
// implement it). Access returns true when a completed inline at the
// current virtual time (a Tier-1 hit): the completion is then neither
// retained nor invoked, and a hitting warp keeps streaming without
// touching the event queue (see HACKING.md, "Scheduler determinism
// contract"). Otherwise it returns false and invokes call(ctx, arg)
// exactly once, at the virtual time the data is available to the warp.
// The completion is a preallocated (sim.EventFunc, ctx) pair — the GPU
// passes a package-level event function with the *warp as ctx — so a
// miss allocates no closure anywhere on its path.
type MemoryManager interface {
	Access(a Access, call sim.EventFunc, ctx any, arg int64) bool
}

// Config sizes the execution model.
type Config struct {
	// Warps is the number of concurrently resident warps.
	Warps int
	// ComputePerAccess is the busy time a warp spends per coalesced
	// access once its data is resident.
	ComputePerAccess sim.Time
}

// DefaultConfig models a kernel keeping an A100-class GPU busy.
func DefaultConfig() Config {
	return Config{Warps: 256, ComputePerAccess: 200 * sim.Nanosecond}
}

// GPU drives a Stream through a MemoryManager on a simulation engine.
type GPU struct {
	eng    *sim.Engine
	cfg    Config
	stream Stream
	mm     MemoryManager

	accesses int64
	stall    sim.Time
	compute  sim.Time
	active   int
	finished bool

	// warps is allocated at the first Launch and reused by every later
	// kernel that fits its capacity; warp pointers are stable and ride
	// the engine's typed event path, so the issue/complete cycle of a
	// resident access allocates nothing.
	warps []warp

	// Barrier state: once one warp consumes the barrier token from the
	// shared stream, barPending parks every other warp as it completes
	// its in-flight work, until all active warps have arrived. parked
	// records arrivals in order; one release event re-steps them in that
	// same order, preserving the stream-consumption sequence. parked and
	// releasing ping-pong: checkBarrier hands the arrivals to the
	// release event by swapping the buffers, so re-parks during a
	// release land in the other buffer and neither ever reallocates.
	barPending bool
	parked     []*warp
	releasing  []*warp
	// batching is true while a barrier release batch still has warps to
	// re-step after the current one; it pins the inline fast path off so
	// a hitting warp cannot advance time past batch-mates that — under
	// the per-warp release events this batch replaces — would have been
	// pending in the queue and broken its streak.
	batching bool
	barriers int64
}

// warp is one resident warp's execution state. A warp has at most one
// access in flight, so a single issue timestamp suffices.
type warp struct {
	g      *GPU
	issued sim.Time
}

// warpStepEvent is the typed event dispatched for every warp step; ctx
// is the *warp.
//
//gmt:hotpath
func warpStepEvent(ctx any, _ int64) { ctx.(*warp).step() }

// barrierReleaseEvent is the typed event dispatched once per completed
// barrier; ctx is the *GPU.
//
//gmt:hotpath
func barrierReleaseEvent(ctx any, _ int64) { ctx.(*GPU).releaseParked() }

// warpAccessDoneEvent is the completion a MemoryManager delivers when
// an access that did not complete inline lands; ctx is the stalled
// *warp.
//
//gmt:hotpath
func warpAccessDoneEvent(ctx any, _ int64) { ctx.(*warp).accessDone() }

// New returns an unlaunched GPU kernel execution.
func New(eng *sim.Engine, cfg Config, stream Stream, mm MemoryManager) *GPU {
	if cfg.Warps < 1 {
		panic("gpu: need at least one warp")
	}
	return &GPU{eng: eng, cfg: cfg, stream: stream, mm: mm}
}

// Reset readies the GPU for another kernel on the same engine and
// manager: cfg and stream replace the launch parameters, and every
// counter, flag and barrier record returns to what New builds. Only
// buffer capacity survives — the warp array and the barrier buffers of
// earlier kernels are reused by the next Launch when they are large
// enough — so a recycled GPU runs any kernel exactly like a fresh one
// (HACKING.md, "Reset-at-quiescence"). It panics while a kernel is
// still running.
func (g *GPU) Reset(cfg Config, stream Stream) {
	if g.active != 0 {
		panic("gpu: Reset while a kernel is running")
	}
	if cfg.Warps < 1 {
		panic("gpu: need at least one warp")
	}
	*g = GPU{
		eng: g.eng, cfg: cfg, stream: stream, mm: g.mm,
		warps: g.warps[:0], parked: g.parked[:0], releasing: g.releasing[:0],
	}
}

// Launch schedules all warps at the current virtual time. Run the engine
// to completion afterwards; Done reports kernel completion.
func (g *GPU) Launch() {
	n := g.cfg.Warps
	if cap(g.warps) < n {
		g.warps = make([]warp, n)
	}
	if cap(g.parked) < n {
		g.parked = make([]*warp, 0, n)
		g.releasing = make([]*warp, 0, n)
	}
	g.warps = g.warps[:n]
	for i := range g.warps {
		w := &g.warps[i]
		*w = warp{g: g}
		g.active++
		g.eng.AfterCall(0, warpStepEvent, w, 0)
	}
}

//gmt:hotpath
func (w *warp) step() {
	g := w.g
	for {
		if g.barPending {
			g.parked = append(g.parked, w)
			g.checkBarrier()
			return
		}
		a, ok := g.stream.Next()
		if !ok {
			g.active--
			if g.active == 0 {
				g.finished = true
			}
			g.checkBarrier()
			return
		}
		if a.IsBarrier() {
			g.barPending = true
			g.parked = append(g.parked, w)
			g.checkBarrier()
			return
		}
		g.accesses++
		w.issued = g.eng.Now()
		if !g.mm.Access(a, warpAccessDoneEvent, w, 0) {
			// Not inline; warpAccessDoneEvent resumes the warp with no
			// closure in flight.
			return
		}
		// Inline completion: account the access exactly as accessDone
		// would (zero stall, one compute quantum), then keep streaming —
		// but only while the queued continuation this advance replaces
		// would have been the next dispatch. A pending event at or
		// before the end of the compute window breaks the streak (a tied
		// event was scheduled earlier, so its lower sequence number wins
		// the FIFO tie-break), as does a barrier release batch with
		// warps still to re-step behind this one.
		g.compute += g.cfg.ComputePerAccess
		next := g.eng.Now() + g.cfg.ComputePerAccess
		if !g.batching {
			if at, ok := g.eng.Peek(); !ok || at > next {
				g.eng.AdvanceTo(next)
				continue
			}
		}
		g.eng.AfterCall(g.cfg.ComputePerAccess, warpStepEvent, w, 0)
		return
	}
}

// accessDone resumes the warp after its in-flight access lands.
//
//gmt:hotpath
func (w *warp) accessDone() {
	g := w.g
	g.stall += g.eng.Now() - w.issued
	g.compute += g.cfg.ComputePerAccess
	g.eng.AfterCall(g.cfg.ComputePerAccess, warpStepEvent, w, 0)
}

// checkBarrier releases parked warps once every still-active warp has
// arrived. Warps that drained the stream entirely do not count toward
// the rendezvous (a finished thread block never blocks a grid sync).
// The release is one scheduled event re-stepping the arrivals in order,
// not one queue entry per warp: the per-warp events always held
// consecutive sequence numbers at a single instant, so nothing could
// ever interleave between them and the batch dispatches identically.
//
//gmt:hotpath
func (g *GPU) checkBarrier() {
	if !g.barPending || len(g.parked) < g.active {
		return
	}
	g.barriers++
	g.barPending = false
	g.parked, g.releasing = g.releasing[:0], g.parked
	g.eng.AfterCall(0, barrierReleaseEvent, g, 0)
}

// releaseParked re-steps a completed barrier's arrivals in arrival
// order. batching marks every step but the last so hit streaks cannot
// advance time past batch-mates; the last warp sees the true queue
// state — its batch-mates' continuations are already scheduled — so the
// normal streak rule applies unchanged. A warp that parks again during
// the batch (a back-to-back barrier) lands in the other ping-pong
// buffer, and the rendezvous it completes is released by a fresh event.
//
//gmt:hotpath
func (g *GPU) releaseParked() {
	rel := g.releasing
	for i, w := range rel {
		g.batching = i < len(rel)-1
		w.step()
	}
	g.batching = false
}

// Accesses reports coalesced accesses issued so far.
func (g *GPU) Accesses() int64 { return g.accesses }

// StallTime reports cumulative warp time spent waiting on memory.
func (g *GPU) StallTime() sim.Time { return g.stall }

// ComputeTime reports cumulative warp busy time.
func (g *GPU) ComputeTime() sim.Time { return g.compute }

// Done reports whether every warp has drained the stream.
func (g *GPU) Done() bool { return g.finished }

// Barriers reports how many kernel-wide barriers completed.
func (g *GPU) Barriers() int64 { return g.barriers }
