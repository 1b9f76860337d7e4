package gpu

import (
	"testing"

	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/raceflag"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// stormStream is an endless barrier-heavy workload: every warp gets one
// resident access per cycle, then the whole grid synchronizes. It is the
// worst case for barrier bookkeeping — the rendezvous fires once per
// compute quantum — and the steady state must not allocate.
type stormStream struct {
	i     int
	warps int
}

func (s *stormStream) Next() (Access, bool) {
	s.i++
	if s.i%(s.warps+1) == 0 {
		return Barrier, true
	}
	return Access{Page: tier.PageID(s.i % 128)}, true
}

// stormWindow is the virtual time one benchmark iteration advances: with
// ComputePerAccess = 100ns every window completes ~100 barriers.
const stormWindow = 10_000 * sim.Nanosecond

func newStorm(warps int) (*sim.Engine, *GPU) {
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: warps, ComputePerAccess: 100 * sim.Nanosecond},
		&stormStream{warps: warps}, residentManager{})
	g.Launch()
	eng.RunUntil(stormWindow) // reach steady state before measuring
	return eng, g
}

// BenchmarkBarrierStorm measures the steady-state cost of kernel-wide
// barriers: 64 warps hitting a grid sync every compute quantum. The
// batch release (one event re-stepping arrivals in order, instead of one
// queue entry per warp) is what keeps this path allocation-free; the
// paired TestBarrierStormAllocGate is the CI gate.
func BenchmarkBarrierStorm(b *testing.B) {
	eng, g := newStorm(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now() + stormWindow)
	}
	b.StopTimer()
	if g.Barriers() == 0 {
		b.Fatal("storm completed no barriers")
	}
}

// TestBarrierStormAllocGate pins the barrier rendezvous/release cycle at
// zero steady-state allocations: parked/releasing ping-pong buffers never
// grow past Launch, and the release event rides the engine's free-listed
// record arena.
func TestBarrierStormAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	eng, g := newStorm(64)
	before := g.Barriers()
	n := testing.AllocsPerRun(100, func() {
		eng.RunUntil(eng.Now() + stormWindow)
	})
	if n != 0 {
		t.Errorf("steady-state barrier storm = %.1f allocs/op, want 0", n)
	}
	if g.Barriers() == before {
		t.Fatal("storm completed no barriers while gating")
	}
}

// TestBarrierReleaseDeterministic pins the batch release to a single
// reproducible schedule: two identical storm runs must dispatch the same
// number of events and land on the same clock.
func TestBarrierReleaseDeterministic(t *testing.T) {
	run := func() (sim.Time, int64, int64) {
		eng, g := newStorm(16)
		eng.RunUntil(eng.Now() + 50*stormWindow)
		return eng.Now(), eng.Steps(), g.Barriers()
	}
	n1, s1, b1 := run()
	n2, s2, b2 := run()
	if n1 != n2 || s1 != s2 || b1 != b2 {
		t.Fatalf("storm diverged: (%d,%d,%d) vs (%d,%d,%d)", n1, s1, b1, n2, s2, b2)
	}
}
