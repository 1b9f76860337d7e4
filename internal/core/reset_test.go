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

// resetCase is one run of the differential chain: a config and the
// trace it runs.
type resetCase struct {
	cfg   Config
	trace []gpu.Access
}

// resetCases is the differential-test matrix: consecutive entries
// exercise both Reset branches per component — shape-compatible (reset
// in place) and shape-changed (rebuild) — across policies, Tier-2
// implementations, tier capacities, drive counts, and optional-feature
// flags; and the state Reset keeps across runs — the Reuse sampler
// after a longer run and across a BaM run, the runtime's random stream
// reseeded after another Random run, and retired Tier-2 stores taken
// back after a policy or capacity detour.
func resetCases() []resetCase {
	trace := warmTailTrace(128, 3000, 512)
	longTrace := warmTailTrace(128, 12000, 1024)
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

	// A Reuse run four times longer over twice the pages grows the
	// sampler's tracker; the runs after it must not see that capacity.
	longReuse := base()
	longReuse.Policy = PolicyReuse
	longReuse.FootprintPages = 1024
	longReuse.SampleTarget = 1 << 20

	reseeded := base()
	reseeded.Policy = PolicyRandom
	reseeded.Seed = 5

	bigT2 := base()
	bigT2.Policy = PolicyReuse
	bigT2.Tier2Pages = 384

	cases := []resetCase{}
	for _, cfg := range []Config{bam, tierOrder, random, reuse, reuseAgain, lruk, twoq, smallT1, striped, async} {
		cases = append(cases, resetCase{cfg, trace})
	}
	return append(cases,
		resetCase{longReuse, longTrace},
		resetCase{reuse, trace}, // a Reuse run after a longer Reuse run
		resetCase{bam, trace},
		resetCase{async, trace}, // Reuse → BaM → Reuse
		resetCase{random, trace},
		resetCase{reseeded, trace},  // the stream reseeded after a Random run
		resetCase{tierOrder, trace}, // the retired Clock taken back
		resetCase{bigT2, trace},
		resetCase{reuse, trace}, // the retired 256-page FIFO taken back
	)
}

// TestResetMatchesFresh is the recycled-vs-fresh differential contract
// behind exp's worker-pool recycling: a runtime that already ran an
// arbitrary earlier configuration, then Reset to cfg, must produce a
// byte-identical run — wall clock, dispatched-event count, and the full
// metrics snapshot — to a freshly constructed runtime under cfg.
func TestResetMatchesFresh(t *testing.T) {
	// Fresh references, one per case.
	type ref struct {
		now   sim.Time
		steps int64
	}
	fresh := resetCases()
	refs := make([]ref, len(fresh))
	snaps := make([]any, len(fresh))
	for i, c := range fresh {
		eng := sim.NewEngine()
		rt := NewRuntime(eng, c.cfg)
		runKernel(t, eng, rt, c.trace, 16)
		refs[i] = ref{now: eng.Now(), steps: eng.Steps()}
		snaps[i] = rt.Snapshot()
	}

	// One recycled runtime serves every case in sequence; each run must
	// match its fresh reference exactly.
	cases := resetCases()
	eng := sim.NewEngine()
	rt := NewRuntime(eng, cases[0].cfg)
	for i, c := range cases {
		if i > 0 {
			rt.Reset(c.cfg)
		}
		runKernel(t, eng, rt, c.trace, 16)
		if eng.Now() != refs[i].now {
			t.Errorf("case %d (%v): wall time: fresh %d, recycled %d",
				i, c.cfg.Policy, refs[i].now, eng.Now())
		}
		if eng.Steps() != refs[i].steps {
			t.Errorf("case %d (%v): dispatched events: fresh %d, recycled %d",
				i, c.cfg.Policy, refs[i].steps, eng.Steps())
		}
		if m := rt.Snapshot(); m != snaps[i] {
			t.Errorf("case %d (%v): metrics diverged:\nfresh:    %+v\nrecycled: %+v",
				i, c.cfg.Policy, snaps[i], m)
		}
		rt.CheckInvariants()
	}
}

// TestTier2RetentionAllocGate: Reset keeps at most one retired Tier-2
// store per store policy, whatever capacities it cycles through. A gmtd
// runner serves Tier2Pages values its clients choose, so what a runtime
// retains must not grow with the number of distinct configs it has
// served. Fifty capacities, each run under every Tier-2 policy and BaM,
// leave at most one store of each policy retired, each filed under its
// own policy; and a policy switch and back at one capacity gets the
// same store back.
func TestTier2RetentionAllocGate(t *testing.T) {
	trace := warmTailTrace(32, 400, 128)
	base := DefaultConfig()
	base.Tier1Pages = 32
	base.FootprintPages = 128
	variants := []func(*Config){
		func(c *Config) { c.Policy = PolicyTierOrder },
		func(c *Config) { c.Policy = PolicyRandom },
		func(c *Config) { c.Policy = PolicyReuse; c.Tier2Policy = tier.StoreLRUK },
		func(c *Config) { c.Policy = PolicyTierOrder; c.Tier2Policy = tier.StoreTwoQ },
		func(c *Config) { c.Policy = PolicyBaM },
	}
	eng := sim.NewEngine()
	rt := NewRuntime(eng, base)
	for i := 0; i < 50; i++ {
		for _, v := range variants {
			cfg := base
			cfg.Tier2Pages = 64 + i
			v(&cfg)
			rt.Reset(cfg)
			runKernel(t, eng, rt, trace, 8)
		}
	}
	if n := len(rt.retiredT2); n > len(tier.StorePolicies) {
		t.Fatalf("%d retired Tier-2 stores after 50 capacities, want at most one per policy (%d)", n, len(tier.StorePolicies))
	}
	kindOf := func(s tier.Store) tier.StorePolicy {
		switch s.(type) {
		case *tier.Clock:
			return tier.StoreClock
		case *tier.FIFO:
			return tier.StoreFIFO
		case *tier.LRUK:
			return tier.StoreLRUK
		case *tier.TwoQ:
			return tier.StoreTwoQ
		}
		return ""
	}
	for kind, s := range rt.retiredT2 {
		if kindOf(s) != kind {
			t.Errorf("a %T is retired as a %q store", s, kind)
		}
	}

	cfg := base
	cfg.Tier2Pages = 96
	cfg.Policy = PolicyTierOrder
	rt.Reset(cfg)
	clock := rt.t2
	cfg.Policy = PolicyRandom
	rt.Reset(cfg)
	cfg.Policy = PolicyTierOrder
	rt.Reset(cfg)
	if rt.t2 != clock {
		t.Error("TierOrder → Random → TierOrder at one capacity built a new Clock instead of taking back the retired one")
	}
}
