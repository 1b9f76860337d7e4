package gpu

import (
	"testing"

	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// residentManager is a trivial MemoryManager where every page is
// already resident: every access completes inline.
type residentManager struct{}

func (residentManager) Access(Access, sim.EventFunc, any, int64) bool { return true }

func trace(n int) []Access {
	t := make([]Access, n)
	for i := range t {
		t[i] = Access{Page: tier.PageID(i)}
	}
	return t
}

func TestAllAccessesProcessed(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 4, ComputePerAccess: 10}, &SliceStream{Trace: trace(100)}, residentManager{})
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("kernel did not finish")
	}
	if g.Accesses() != 100 {
		t.Fatalf("accesses = %d, want 100", g.Accesses())
	}
}

func TestComputeBoundTime(t *testing.T) {
	eng := sim.NewEngine()
	const n, warps, c = 100, 4, sim.Time(10)
	g := New(eng, Config{Warps: warps, ComputePerAccess: c}, &SliceStream{Trace: trace(n)}, residentManager{})
	g.Launch()
	eng.Run()
	// All hits: wall time = (n/warps) * compute.
	want := sim.Time(n/warps) * c
	if eng.Now() != want {
		t.Fatalf("compute-bound time = %d, want %d", eng.Now(), want)
	}
	if g.StallTime() != 0 {
		t.Fatalf("stall = %d on all-resident run", g.StallTime())
	}
	if g.ComputeTime() != sim.Time(n)*c {
		t.Fatalf("compute = %d, want %d", g.ComputeTime(), sim.Time(n)*c)
	}
}

// delayManager resolves every access after a fixed latency, with
// unlimited parallelism.
type delayManager struct {
	eng *sim.Engine
	d   sim.Time
}

func (m delayManager) Access(_ Access, call sim.EventFunc, ctx any, arg int64) bool {
	m.eng.AfterCall(m.d, call, ctx, arg)
	return false
}

func TestMissOverlapAcrossWarps(t *testing.T) {
	// 8 warps, 8 accesses, each costing 1000ns of memory latency:
	// with overlap the kernel finishes in ≈1000ns, not 8000.
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 8, ComputePerAccess: 1}, &SliceStream{Trace: trace(8)}, delayManager{eng, 1000})
	g.Launch()
	eng.Run()
	if eng.Now() > 1100 {
		t.Fatalf("8 overlapped misses took %dns; no overlap", eng.Now())
	}
	if g.StallTime() != 8*1000 {
		t.Fatalf("stall = %d, want 8000 (8 warps x 1000)", g.StallTime())
	}
}

func TestSingleWarpSerializes(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 1, ComputePerAccess: 1}, &SliceStream{Trace: trace(8)}, delayManager{eng, 1000})
	g.Launch()
	eng.Run()
	if eng.Now() != 8*1001 {
		t.Fatalf("serial time = %d, want 8008", eng.Now())
	}
}

func TestStreamOrderPreserved(t *testing.T) {
	// Warps pull from a shared stream: with an all-hit manager the
	// issue order must equal the trace order regardless of warp count.
	eng := sim.NewEngine()
	var issued []tier.PageID
	mm := managerFunc(func(a Access, _ sim.EventFunc, _ any, _ int64) bool {
		issued = append(issued, a.Page)
		return true
	})
	g := New(eng, Config{Warps: 7, ComputePerAccess: 3}, &SliceStream{Trace: trace(50)}, mm)
	g.Launch()
	eng.Run()
	for i, p := range issued {
		if p != tier.PageID(i) {
			t.Fatalf("issue order broken at %d: got %d", i, p)
		}
	}
}

type managerFunc func(a Access, call sim.EventFunc, ctx any, arg int64) bool

func (f managerFunc) Access(a Access, call sim.EventFunc, ctx any, arg int64) bool {
	return f(a, call, ctx, arg)
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine()
		g := New(eng, Config{Warps: 16, ComputePerAccess: 7}, &SliceStream{Trace: trace(500)}, delayManager{eng, 333})
		g.Launch()
		eng.Run()
		return eng.Now()
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}

func TestSliceStreamExhaustion(t *testing.T) {
	s := &SliceStream{Trace: trace(2)}
	if _, ok := s.Next(); !ok {
		t.Fatal("first Next failed")
	}
	s.Next()
	if _, ok := s.Next(); ok {
		t.Fatal("stream did not report exhaustion")
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	// Phase 1 (pages 0..7), barrier, phase 2 (pages 8..15). With a
	// delaying manager, no phase-2 access may issue before every
	// phase-1 access completed.
	var tr []Access
	for p := tier.PageID(0); p < 8; p++ {
		tr = append(tr, Access{Page: p})
	}
	tr = append(tr, Barrier)
	for p := tier.PageID(8); p < 16; p++ {
		tr = append(tr, Access{Page: p})
	}
	eng := sim.NewEngine()
	var phase1Done, phase2First sim.Time
	mm := managerFunc(func(a Access, call sim.EventFunc, ctx any, arg int64) bool {
		if a.Page < 8 {
			eng.AfterCall(1000, sim.CallFunc, func() {
				if eng.Now() > phase1Done {
					phase1Done = eng.Now()
				}
				call(ctx, arg)
			}, 0)
			return false
		}
		if phase2First == 0 {
			phase2First = eng.Now()
		}
		return true
	})
	g := New(eng, Config{Warps: 4, ComputePerAccess: 1}, &SliceStream{Trace: tr}, mm)
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("kernel did not finish")
	}
	if g.Barriers() != 1 {
		t.Fatalf("barriers = %d, want 1", g.Barriers())
	}
	if phase2First < phase1Done {
		t.Fatalf("phase 2 started at %d before phase 1 finished at %d", phase2First, phase1Done)
	}
	if g.Accesses() != 16 {
		t.Fatalf("accesses = %d, want 16 (barrier not counted)", g.Accesses())
	}
}

func TestConsecutiveBarriers(t *testing.T) {
	tr := []Access{{Page: 1}, Barrier, Barrier, {Page: 2}}
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 3, ComputePerAccess: 1}, &SliceStream{Trace: tr}, residentManager{})
	g.Launch()
	eng.Run()
	if !g.Done() || g.Barriers() != 2 || g.Accesses() != 2 {
		t.Fatalf("done=%v barriers=%d accesses=%d", g.Done(), g.Barriers(), g.Accesses())
	}
}

func TestBarrierWithDrainingWarps(t *testing.T) {
	// More warps than pre-barrier work: extra warps hit the barrier (or
	// stream end) immediately; the rendezvous must still release.
	tr := []Access{{Page: 1}, Barrier, {Page: 2}, {Page: 3}}
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 16, ComputePerAccess: 5}, &SliceStream{Trace: tr}, delayManager{eng, 100})
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("deadlocked on barrier with excess warps")
	}
	if g.Accesses() != 3 {
		t.Fatalf("accesses = %d", g.Accesses())
	}
}

func TestTrailingBarrierTerminates(t *testing.T) {
	tr := []Access{{Page: 1}, Barrier}
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 2, ComputePerAccess: 1}, &SliceStream{Trace: tr}, residentManager{})
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("trailing barrier deadlocked")
	}
}

func TestZeroWarpsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Warps=0 did not panic")
		}
	}()
	New(sim.NewEngine(), Config{}, &SliceStream{}, residentManager{})
}
