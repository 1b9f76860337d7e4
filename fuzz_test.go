package gmt

import (
	"math/rand"
	"testing"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
)

// fuzzTrace derives a random access sequence from rng: a hot set for
// long Tier-1 hit streaks, uniform cold traffic for misses and
// evictions, occasional writes (dirty-bit tracking) and kernel-wide
// barriers (which break a streak and park the warp).
func fuzzTrace(rng *rand.Rand, n, footprint int) []gpu.Access {
	hot := footprint / 8
	if hot < 4 {
		hot = 4
	}
	tr := make([]gpu.Access, 0, n)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 2:
			tr = append(tr, gpu.Barrier)
		case r < 60:
			tr = append(tr, gpu.Access{
				Page:  tier.PageID(rng.Intn(hot)),
				Write: rng.Intn(8) == 0,
			})
		default:
			tr = append(tr, gpu.Access{
				Page:  tier.PageID(rng.Intn(footprint)),
				Write: rng.Intn(8) == 0,
			})
		}
	}
	return tr
}

// diffInlineQueued runs one randomly-derived configuration through the
// full runtime twice — once with inline hit streaks, once through the
// queued reference wrapper that resumes every hit by a continuation
// event — and requires identical final clocks and an identical metrics
// snapshot (the scheduler determinism contract, HACKING.md). Dispatched
// event counts differ by design: the queued path dispatches one event
// per hit.
func diffInlineQueued(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pol := []core.PolicyKind{core.PolicyBaM, core.PolicyTierOrder, core.PolicyReuse}[rng.Intn(3)]
	t1 := 64 << rng.Intn(3)
	foot := t1 * (1 + rng.Intn(4))
	warps := 1 << rng.Intn(6)
	trace := fuzzTrace(rng, 2000+rng.Intn(2000), foot)

	run := func(queue bool) (sim.Time, stats.Run) {
		eng := sim.NewEngine()
		cfg := core.DefaultConfig()
		cfg.Policy = pol
		cfg.Tier1Pages = t1
		cfg.FootprintPages = foot
		rt := core.NewRuntime(eng, cfg)
		var mm gpu.MemoryManager = rt
		if queue {
			mm = queued{rt}
		}
		gcfg := gpu.DefaultConfig()
		gcfg.Warps = warps
		g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: trace}, mm)
		g.Launch()
		eng.Run()
		if !g.Done() {
			t.Fatalf("seed %d (%v, t1=%d, foot=%d, warps=%d): kernel did not finish",
				seed, pol, t1, foot, warps)
		}
		return eng.Now(), rt.Snapshot()
	}

	inow, im := run(false)
	qnow, qm := run(true)
	if inow != qnow {
		t.Errorf("seed %d (%v, t1=%d, foot=%d, warps=%d): wall time: inline %d, queued %d",
			seed, pol, t1, foot, warps, inow, qnow)
	}
	if im != qm {
		t.Errorf("seed %d (%v, t1=%d, foot=%d, warps=%d): metrics diverged:\ninline: %+v\nqueued: %+v",
			seed, pol, t1, foot, warps, im, qm)
	}
}

// TestInlineQueuedDifferential sweeps a fixed seed range so plain
// `go test` exercises the differential without a fuzzing engine.
func TestInlineQueuedDifferential(t *testing.T) {
	n := int64(24)
	if testing.Short() {
		n = 6
	}
	for seed := int64(1); seed <= n; seed++ {
		diffInlineQueued(t, seed)
	}
}

// FuzzInlineQueuedEquivalence lets `go test -fuzz` explore seeds beyond
// the fixed sweep; the corpus seeds below run on every plain `go test`.
func FuzzInlineQueuedEquivalence(f *testing.F) {
	for seed := int64(100); seed < 108; seed++ {
		f.Add(seed)
	}
	f.Fuzz(diffInlineQueued)
}
