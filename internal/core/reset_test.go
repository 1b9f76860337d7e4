package core

import (
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// warmTailTrace builds a trace whose head touches exactly warm distinct
// pages (an eviction-free warm-up) and whose tail oversubscribes
// Tier-1, forcing evictions, Tier-2 traffic, and re-fetches.
func warmTailTrace(warm, tail, footprint int) []gpu.Access {
	tr := make([]gpu.Access, 0, warm*2+tail)
	for i := 0; i < warm*2; i++ {
		tr = append(tr, gpu.Access{Page: tier.PageID(i % warm), Write: i%11 == 0})
	}
	for i := 0; i < tail; i++ {
		tr = append(tr, gpu.Access{Page: tier.PageID(i * 7919 % footprint), Write: i%13 == 0})
		if (i+1)%300 == 0 {
			tr = append(tr, gpu.Barrier)
		}
	}
	return tr
}

// runKernel launches one kernel over trace on the given engine/runtime
// and drains it.
func runKernel(t *testing.T, eng *sim.Engine, rt *Runtime, trace []gpu.Access, warps int) {
	t.Helper()
	gcfg := gpu.DefaultConfig()
	gcfg.Warps = warps
	g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: trace}, rt)
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("kernel did not finish")
	}
}

// resetConfigs is the differential-test matrix: consecutive entries
// exercise both Reset branches per component — shape-compatible (reset
// in place) and shape-changed (rebuild) — across policies, Tier-2
// implementations, tier capacities, drive counts, and optional-feature
// flags.
func resetConfigs() []Config {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Tier1Pages = 128
		cfg.Tier2Pages = 256
		cfg.FootprintPages = 512
		return cfg
	}
	bam := base()
	bam.Policy = PolicyBaM

	tierOrder := base()
	tierOrder.Policy = PolicyTierOrder

	random := base()
	random.Policy = PolicyRandom

	reuse := base()
	reuse.Policy = PolicyReuse

	reuseAgain := reuse // identical shape: every component resets in place

	lruk := base()
	lruk.Policy = PolicyReuse
	lruk.Tier2Policy = tier.StoreLRUK
	lruk.TrackTier2Reuse = true

	twoq := base()
	twoq.Policy = PolicyTierOrder
	twoq.Tier2Policy = tier.StoreTwoQ

	smallT1 := base()
	smallT1.Policy = PolicyReuse
	smallT1.Tier1Pages = 64

	striped := base()
	striped.Policy = PolicyTierOrder
	striped.SSDCount = 2

	async := base()
	async.Policy = PolicyReuse
	async.AsyncEviction = true
	async.Seed = 7

	return []Config{bam, tierOrder, random, reuse, reuseAgain, lruk, twoq, smallT1, striped, async}
}

// TestResetMatchesFresh is the recycled-vs-fresh differential contract
// behind exp's worker-pool recycling: a runtime that already ran an
// arbitrary earlier configuration, then Reset to cfg, must produce a
// byte-identical run — wall clock, dispatched-event count, and the full
// metrics snapshot — to a freshly constructed runtime under cfg.
func TestResetMatchesFresh(t *testing.T) {
	configs := resetConfigs()
	trace := warmTailTrace(128, 3000, 512)

	// Fresh references, one per config.
	type ref struct {
		now   sim.Time
		steps int64
	}
	refs := make([]ref, len(configs))
	snaps := make([]any, len(configs))
	for i, cfg := range configs {
		eng := sim.NewEngine()
		rt := NewRuntime(eng, cfg)
		runKernel(t, eng, rt, trace, 16)
		refs[i] = ref{now: eng.Now(), steps: eng.Steps()}
		snaps[i] = rt.Snapshot()
	}

	// One recycled runtime serves every config in sequence; each run
	// must match its fresh reference exactly.
	eng := sim.NewEngine()
	rt := NewRuntime(eng, configs[0])
	for i, cfg := range configs {
		if i > 0 {
			rt.Reset(cfg)
		}
		runKernel(t, eng, rt, trace, 16)
		if eng.Now() != refs[i].now {
			t.Errorf("config %d (%v): wall time: fresh %d, recycled %d",
				i, cfg.Policy, refs[i].now, eng.Now())
		}
		if eng.Steps() != refs[i].steps {
			t.Errorf("config %d (%v): dispatched events: fresh %d, recycled %d",
				i, cfg.Policy, refs[i].steps, eng.Steps())
		}
		if m := rt.Snapshot(); m != snaps[i] {
			t.Errorf("config %d (%v): metrics diverged:\nfresh:    %+v\nrecycled: %+v",
				i, cfg.Policy, snaps[i], m)
		}
		rt.CheckInvariants()
	}
}
