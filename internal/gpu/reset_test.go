package gpu

import (
	"testing"

	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// kernelManager misses every fifth page after a page-dependent latency
// and hits the rest inline.
type kernelManager struct{ eng *sim.Engine }

func (m kernelManager) Access(a Access, call sim.EventFunc, ctx any, arg int64) bool {
	if a.Page%5 == 0 {
		m.eng.AfterCall(sim.Time(100+a.Page%7*300), call, ctx, arg)
		return false
	}
	return true
}

// kernelTrace is phases of 3×warps accesses over fresh pages, each
// phase closed by a barrier.
func kernelTrace(warps, phases int) []Access {
	var tr []Access
	p := tier.PageID(0)
	for k := 0; k < phases; k++ {
		for i := 0; i < 3*warps; i++ {
			tr = append(tr, Access{Page: p, Write: i%4 == 0})
			p++
		}
		tr = append(tr, Barrier)
	}
	return tr
}

// TestResetMatchesFresh pins GPU reuse to fresh construction: one GPU,
// Reset across kernels of 64, 128 and 64 warps — its warp array
// outgrown once and then reused at a smaller size — must run every
// kernel exactly like a fresh New on an engine in the same state, on
// both hit paths (inline hit streaks, queued continuations).
func TestResetMatchesFresh(t *testing.T) {
	for _, c := range []struct {
		name string
		mm   func(*sim.Engine) MemoryManager
	}{
		{"inline", func(e *sim.Engine) MemoryManager { return kernelManager{e} }},
		{"queued", func(e *sim.Engine) MemoryManager { return queued{kernelManager{e}} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			reusedEng, freshEng := sim.NewEngine(), sim.NewEngine()
			var stream SliceStream
			g := New(reusedEng, Config{Warps: 1}, &stream, c.mm(reusedEng))
			for k, warps := range []int{64, 128, 64} {
				cfg := Config{Warps: warps, ComputePerAccess: sim.Time(20 + 30*k)}
				tr := kernelTrace(warps, 3+k)
				stream = SliceStream{Trace: tr}
				g.Reset(cfg, &stream)
				g.Launch()
				if g.Done() {
					t.Fatalf("kernel %d reports done before it ran", k)
				}
				reusedEng.Run()

				f := New(freshEng, cfg, &SliceStream{Trace: tr}, c.mm(freshEng))
				f.Launch()
				freshEng.Run()

				if !g.Done() || !f.Done() {
					t.Fatalf("kernel %d: done reused=%v fresh=%v", k, g.Done(), f.Done())
				}
				if f.Barriers() == 0 || f.StallTime() == 0 {
					t.Fatalf("kernel %d exercised no barrier or miss", k)
				}
				type state struct {
					now                    sim.Time
					steps, accesses, barrs int64
					compute, stall         sim.Time
				}
				got := state{reusedEng.Now(), reusedEng.Steps(), g.Accesses(), g.Barriers(), g.ComputeTime(), g.StallTime()}
				want := state{freshEng.Now(), freshEng.Steps(), f.Accesses(), f.Barriers(), f.ComputeTime(), f.StallTime()}
				if got != want {
					t.Errorf("kernel %d (%d warps): reused %+v, fresh %+v", k, warps, got, want)
				}
			}
		})
	}
}

// TestResetWhileRunningPanics: a kernel with warps still active must
// not be reset out from under its scheduled events.
func TestResetWhileRunningPanics(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 4, ComputePerAccess: 10}, &SliceStream{Trace: trace(100)}, residentManager{})
	g.Launch()
	eng.RunUntil(100)
	if g.Done() {
		t.Fatal("kernel finished before the mid-run Reset")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reset of a running kernel did not panic")
		}
	}()
	g.Reset(Config{Warps: 4}, &SliceStream{})
}
