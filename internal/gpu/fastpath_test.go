package gpu

import (
	"math/rand"
	"testing"

	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// queued is the reference path of the scheduler determinism contract
// (HACKING.md): a hit runs the completion synchronously and reports
// false, so the warp resumes through a queued continuation event instead
// of streaming inline. Running the same workload inline and through
// queued is the executable form of the fast-path equivalence argument.
type queued struct{ mm MemoryManager }

func (q queued) Access(a Access, call sim.EventFunc, ctx any, arg int64) bool {
	if q.mm.Access(a, call, ctx, arg) {
		call(ctx, arg)
	}
	return false
}

// mixedManager resolves even pages inline and odd pages after a
// page-dependent latency, so hit streaks, misses, and barrier arrivals
// interleave in a nontrivial order.
type mixedManager struct{ eng *sim.Engine }

func (m mixedManager) Access(a Access, call sim.EventFunc, ctx any, arg int64) bool {
	if a.Page%2 == 0 {
		return true
	}
	m.eng.AfterCall(sim.Time(100+a.Page%7*300), call, ctx, arg)
	return false
}

// barrierMixTrace interleaves accesses and grid syncs: phases of 2×warps
// accesses separated by barriers.
func barrierMixTrace(warps, phases int) []Access {
	var tr []Access
	p := tier.PageID(0)
	for k := 0; k < phases; k++ {
		for i := 0; i < 2*warps; i++ {
			tr = append(tr, Access{Page: p})
			p++
		}
		tr = append(tr, Barrier)
	}
	return tr
}

// TestFastPathMatchesQueuedPath runs a barrier-heavy mixed-latency
// workload once with inline hits and once through queued; wall time and
// every GPU-side metric must agree. This exercises the streak-breaking
// rule (a tied event must win the FIFO tie-break over an inline advance)
// and the batching flag that pins the fast path off while a barrier
// release batch is mid-flight.
func TestFastPathMatchesQueuedPath(t *testing.T) {
	run := func(hide bool) (sim.Time, int64, int64, sim.Time, sim.Time) {
		eng := sim.NewEngine()
		var mm MemoryManager = mixedManager{eng}
		if hide {
			mm = queued{mm}
		}
		g := New(eng, Config{Warps: 8, ComputePerAccess: 50 * sim.Nanosecond},
			&SliceStream{Trace: barrierMixTrace(8, 5)}, mm)
		g.Launch()
		eng.Run()
		if !g.Done() {
			t.Fatal("kernel did not finish")
		}
		return eng.Now(), g.Accesses(), g.Barriers(), g.StallTime(), g.ComputeTime()
	}
	fnow, facc, fbar, fstall, fcomp := run(false)
	qnow, qacc, qbar, qstall, qcomp := run(true)
	if fnow != qnow {
		t.Errorf("wall time: fast path %d, queued path %d", fnow, qnow)
	}
	if facc != qacc || fbar != qbar {
		t.Errorf("accesses/barriers: fast %d/%d, queued %d/%d", facc, fbar, qacc, qbar)
	}
	if fstall != qstall || fcomp != qcomp {
		t.Errorf("stall/compute: fast %d/%d, queued %d/%d", fstall, fcomp, qstall, qcomp)
	}
}

// fillManager is a stateful manager built to land fills on the ties the
// streak guard exists for: a page's first access fills it after a whole
// number of compute quanta, so the fill lands exactly where a hitting
// warp's compute window ends; accesses during a fill join it, and later
// ones hit inline.
type fillManager struct {
	eng         *sim.Engine
	latency     []sim.Time // per page
	pages       []fillPage
	hits, joins int64
}

type fillPage struct {
	filling, resident bool
	waiters           []fillWaiter
}

type fillWaiter struct {
	call sim.EventFunc
	ctx  any
	arg  int64
}

func (m *fillManager) Access(a Access, call sim.EventFunc, ctx any, arg int64) bool {
	ps := &m.pages[a.Page]
	switch {
	case ps.resident:
		m.hits++
		return true
	case ps.filling:
		m.joins++
	default:
		ps.filling = true
		m.eng.AfterCall(m.latency[a.Page], fillLanded, m, int64(a.Page))
	}
	ps.waiters = append(ps.waiters, fillWaiter{call, ctx, arg})
	return false
}

func fillLanded(ctx any, p int64) {
	ps := &ctx.(*fillManager).pages[p]
	ps.resident = true
	for _, w := range ps.waiters {
		w.call(w.ctx, w.arg)
	}
	ps.waiters = nil
}

// TestStreakGuardMatchesQueued checks the streak-breaking tie directly:
// over 300 seeds of fresh pages re-accessed soon after their fills,
// with fill latencies that are multiples of ComputePerAccess, inline
// hits and the queued reference must agree on wall time, stall, compute,
// hits and joins. An inline streak that runs through a fill landing at
// the end of its compute window (the guard loosened from at > next to
// at >= next) turns joins into hits and diverges on most seeds.
func TestStreakGuardMatchesQueued(t *testing.T) {
	const cpa = 50 * sim.Nanosecond
	type result struct {
		now, stall, compute sim.Time
		hits, joins         int64
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		warps := 1 + rng.Intn(8)
		var tr []Access
		fresh := tier.PageID(0)
		for i := 0; i < 300; i++ {
			switch r := rng.Intn(100); {
			case r < 2:
				tr = append(tr, Barrier)
			case r < 35 || fresh < 4:
				tr = append(tr, Access{Page: fresh})
				fresh++
			default:
				tr = append(tr, Access{Page: fresh - 1 - tier.PageID(rng.Intn(4))})
			}
		}
		latency := make([]sim.Time, fresh)
		for p := range latency {
			latency[p] = cpa * sim.Time(1+rng.Intn(4))
		}
		run := func(inline bool) result {
			eng := sim.NewEngine()
			m := &fillManager{eng: eng, latency: latency, pages: make([]fillPage, fresh)}
			var mm MemoryManager = m
			if !inline {
				mm = queued{m}
			}
			g := New(eng, Config{Warps: warps, ComputePerAccess: cpa}, &SliceStream{Trace: tr}, mm)
			g.Launch()
			eng.Run()
			if !g.Done() {
				t.Fatalf("seed %d: kernel did not finish", seed)
			}
			return result{eng.Now(), g.StallTime(), g.ComputeTime(), m.hits, m.joins}
		}
		if in, q := run(true), run(false); in != q {
			t.Errorf("seed %d (%d warps): inline %+v, queued %+v", seed, warps, in, q)
		}
	}
}
