package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
)

// run executes a trace against a runtime configuration and returns the
// runtime (post-run) and the virtual wall time.
func run(t *testing.T, cfg Config, trace []gpu.Access, warps int) (*Runtime, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	rt := NewRuntime(eng, cfg)
	g := gpu.New(eng, gpu.Config{Warps: warps, ComputePerAccess: 200}, &gpu.SliceStream{Trace: trace}, rt)
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("kernel did not finish")
	}
	rt.CheckInvariants()
	return rt, eng.Now()
}

func seqTrace(n, pages int) []gpu.Access {
	tr := make([]gpu.Access, n)
	for i := range tr {
		tr[i] = gpu.Access{Page: tier.PageID(i % pages)}
	}
	return tr
}

func smallConfig(p PolicyKind) Config {
	cfg := DefaultConfig()
	cfg.Policy = p
	cfg.Tier1Pages = 32
	cfg.Tier2Pages = 128
	cfg.SampleTarget = 2000
	cfg.SampleBatch = 200
	cfg.BackfillWindow = 16
	return cfg
}

func TestAccessAccountingAddsUp(t *testing.T) {
	for _, p := range []PolicyKind{PolicyBaM, PolicyTierOrder, PolicyRandom, PolicyReuse} {
		rt, _ := run(t, smallConfig(p), seqTrace(5000, 100), 8)
		m := rt.Snapshot()
		if m.Accesses != 5000 {
			t.Fatalf("%v: accesses = %d, want 5000", p, m.Accesses)
		}
		sum := m.Tier1Hits + m.Tier2Hits + m.SSDFills + m.InFlightJoins
		if sum != m.Accesses {
			t.Fatalf("%v: hit/miss breakdown %d != accesses %d", p, sum, m.Accesses)
		}
	}
}

func TestColdStartFillsTier1WithoutEviction(t *testing.T) {
	cfg := smallConfig(PolicyBaM)
	// 32 distinct pages exactly fill Tier-1: no evictions on cold start.
	rt, _ := run(t, cfg, seqTrace(32, 32), 1)
	m := rt.Snapshot()
	if m.SSDFills != 32 || m.EvictionsDropped+m.EvictionsToSSD != 0 {
		t.Fatalf("cold start: fills=%d evictions=%d", m.SSDFills, m.EvictionsDropped+m.EvictionsToSSD)
	}
	if rt.Tier1Resident() != 32 {
		t.Fatalf("resident = %d, want 32", rt.Tier1Resident())
	}
}

func TestBaMNeverTouchesTier2(t *testing.T) {
	rt, _ := run(t, smallConfig(PolicyBaM), seqTrace(5000, 200), 8)
	m := rt.Snapshot()
	if m.Tier2Lookups != 0 || m.Tier2Hits != 0 || m.EvictionsToTier2 != 0 {
		t.Fatalf("BaM touched Tier-2: %+v", m)
	}
	if rt.Tier2Resident() != 0 {
		t.Fatal("BaM has Tier-2 residents")
	}
}

// TestCanonicalRunsIdentical pins what exp's run keys rely on. A
// config changed in one field that Canonical normalizes must keep its
// clock, dispatched event count and metrics; a change to a field the
// run reads must keep its own Canonical value. A Canonical that
// normalizes too much fails the second half.
func TestCanonicalRunsIdentical(t *testing.T) {
	trace := warmTailTrace(64, 3000, 256)
	type result struct {
		now   sim.Time
		steps int64
		m     stats.Run
	}
	runOf := func(cfg Config) result {
		eng := sim.NewEngine()
		rt := NewRuntime(eng, cfg)
		runKernel(t, eng, rt, trace, 16)
		return result{eng.Now(), eng.Steps(), rt.Snapshot()}
	}
	for _, c := range []struct {
		field  string
		policy PolicyKind
		mutate func(*Config)
		// normalized: Canonical maps the change back to the base value.
		normalized bool
	}{
		{"Tier2Pages", PolicyBaM, func(c *Config) { c.Tier2Pages = 512 }, true},
		{"Seed", PolicyBaM, func(c *Config) { c.Seed = 99 }, true},
		{"SSDCount 1", PolicyBaM, func(c *Config) { c.SSDCount = 1 }, true},
		{"SSDCount 1", PolicyReuse, func(c *Config) { c.SSDCount = 1 }, true},
		{"SSDCount 2", PolicyBaM, func(c *Config) { c.SSDCount = 2 }, false},
		{"Tier1Pages", PolicyBaM, func(c *Config) { c.Tier1Pages = 48 }, false},
		{"PageSize", PolicyBaM, func(c *Config) { c.PageSize *= 2 }, false},
		{"PrefetchDegree", PolicyBaM, func(c *Config) { c.PrefetchDegree = 2 }, false},
		{"Seed", PolicyRandom, func(c *Config) { c.Seed = 99 }, false},
		{"Tier2Pages", PolicyReuse, func(c *Config) { c.Tier2Pages = 512 }, false},
	} {
		base := DefaultConfig()
		base.Policy = c.policy
		base.Tier1Pages = 64
		base.Tier2Pages = 128
		base.FootprintPages = 256
		base.Seed = 3
		cfg := base
		c.mutate(&cfg)
		same := Canonical(cfg).Params == Canonical(base).Params
		if same != c.normalized {
			t.Errorf("%v %s: Canonical maps it to the base value: %v, want %v", c.policy, c.field, same, c.normalized)
			continue
		}
		if same {
			if got, want := runOf(cfg), runOf(base); got != want {
				t.Errorf("%v %s: Canonical normalizes it, but the run changed:\nbase:    %+v\nchanged: %+v",
					c.policy, c.field, want, got)
			}
		}
	}
}

func TestTierOrderAlwaysPlacesInTier2(t *testing.T) {
	rt, _ := run(t, smallConfig(PolicyTierOrder), seqTrace(5000, 200), 8)
	m := rt.Snapshot()
	evictions := m.EvictionsToTier2 + m.EvictionsToSSD + m.EvictionsDropped
	// Every Tier-1 victim must go to Tier-2 under TierOrder; drops and
	// writebacks only happen out of Tier-2.
	if m.EvictionsToTier2 == 0 {
		t.Fatal("TierOrder never placed in Tier-2")
	}
	if evictions-m.EvictionsToTier2 != m.Tier2Evictions {
		t.Fatalf("TierOrder: non-T2 discards (%d) != Tier-2 evictions (%d)",
			evictions-m.EvictionsToTier2, m.Tier2Evictions)
	}
}

func TestRandomSplitsPlacement(t *testing.T) {
	rt, _ := run(t, smallConfig(PolicyRandom), seqTrace(20_000, 400), 8)
	m := rt.Snapshot()
	direct := m.EvictionsToSSD + m.EvictionsDropped - m.Tier2Evictions
	if m.EvictionsToTier2 == 0 || direct <= 0 {
		t.Fatalf("Random did not split placements: toT2=%d direct=%d", m.EvictionsToTier2, direct)
	}
	// Roughly a coin flip: between 30%% and 70%%.
	frac := float64(m.EvictionsToTier2) / float64(m.EvictionsToTier2+direct)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("Random placement fraction = %.2f, want ≈0.5", frac)
	}
}

func TestTier2HitsServeReuse(t *testing.T) {
	// Working set of 100 pages cycled repeatedly: Tier-1 (32) can't hold
	// it, Tier-2 (128) can. The 3-tier policies must convert SSD reads
	// into Tier-2 hits on later cycles; BaM cannot.
	trace := seqTrace(20_000, 100)
	bam, _ := run(t, smallConfig(PolicyBaM), trace, 8)
	for _, p := range []PolicyKind{PolicyTierOrder, PolicyRandom, PolicyReuse} {
		rt, _ := run(t, smallConfig(p), trace, 8)
		m := rt.Snapshot()
		if m.Tier2Hits == 0 {
			t.Fatalf("%v: no Tier-2 hits on a Tier-2-sized working set", p)
		}
		if m.SSDReads >= bam.Snapshot().SSDReads {
			t.Fatalf("%v: SSD reads (%d) not reduced vs BaM (%d)",
				p, m.SSDReads, bam.Snapshot().SSDReads)
		}
	}
}

func TestDirtyPagesWrittenBack(t *testing.T) {
	trace := make([]gpu.Access, 4000)
	for i := range trace {
		trace[i] = gpu.Access{Page: tier.PageID(i % 200), Write: true}
	}
	rt, _ := run(t, smallConfig(PolicyBaM), trace, 8)
	m := rt.Snapshot()
	if m.SSDWrites == 0 || m.EvictionsToSSD == 0 {
		t.Fatalf("dirty evictions produced no writebacks: %+v", m)
	}
	if m.EvictionsDropped != 0 {
		t.Fatalf("dirty pages dropped silently: %d", m.EvictionsDropped)
	}
}

func TestCleanPagesDroppedFree(t *testing.T) {
	rt, _ := run(t, smallConfig(PolicyBaM), seqTrace(4000, 200), 8)
	m := rt.Snapshot()
	if m.SSDWrites != 0 {
		t.Fatalf("clean workload produced %d SSD writes", m.SSDWrites)
	}
	if m.EvictionsDropped == 0 {
		t.Fatal("no clean drops recorded")
	}
}

func TestInFlightJoinsCoalesce(t *testing.T) {
	// Many warps hammering one missing page must produce one SSD read.
	trace := make([]gpu.Access, 64)
	for i := range trace {
		trace[i] = gpu.Access{Page: 7}
	}
	rt, _ := run(t, smallConfig(PolicyBaM), trace, 64)
	m := rt.Snapshot()
	if m.SSDReads != 1 {
		t.Fatalf("SSD reads = %d, want 1 (coalesced)", m.SSDReads)
	}
	if m.InFlightJoins == 0 {
		t.Fatal("no in-flight joins recorded")
	}
}

func TestReuseBackfillOnScanWorkload(t *testing.T) {
	// A cyclic scan far larger than Tier-1+Tier-2 classifies everything
	// Long; §2.2's heuristic must still populate Tier-2 (the Hotspot
	// effect) and produce Tier-2 hits on later laps.
	cfg := smallConfig(PolicyReuse)
	trace := seqTrace(30_000, 600) // scan of 600 pages; T1+T2 = 160
	rt, _ := run(t, cfg, trace, 8)
	m := rt.Snapshot()
	if m.BackfillPlaced == 0 {
		t.Fatal("backfill heuristic never fired on a scan workload")
	}
	if m.Tier2Hits == 0 {
		t.Fatal("backfilled pages never hit")
	}
	// Ablation: disabling the heuristic must strand Tier-2 nearly empty.
	off := cfg
	off.BackfillThreshold = 2.0
	rtOff, _ := run(t, off, trace, 8)
	mOff := rtOff.Snapshot()
	if mOff.BackfillPlaced != 0 {
		t.Fatal("disabled heuristic still placed pages")
	}
	if mOff.Tier2Hits >= m.Tier2Hits {
		t.Fatalf("heuristic off gave %d Tier-2 hits >= on (%d)", mOff.Tier2Hits, m.Tier2Hits)
	}
}

func TestReusePredictionsScored(t *testing.T) {
	rt, _ := run(t, smallConfig(PolicyReuse), seqTrace(40_000, 100), 8)
	m := rt.Snapshot()
	if m.Predictions == 0 {
		t.Fatal("no predictions scored")
	}
	if m.CorrectPredictions > m.Predictions {
		t.Fatal("accuracy accounting broken")
	}
	if m.SamplePairs == 0 || m.RegressionBatches == 0 {
		t.Fatalf("sampling pipeline idle: %+v", m)
	}
}

func TestReuseOutperformsBaMOnTier2Friendly(t *testing.T) {
	// Cyclic reuse with a working set that fits Tier-1+Tier-2: the
	// 3-tier policies must beat BaM on wall time (the paper's headline).
	trace := seqTrace(40_000, 120)
	_, tBam := run(t, smallConfig(PolicyBaM), trace, 16)
	_, tReuse := run(t, smallConfig(PolicyReuse), trace, 16)
	if tReuse >= tBam {
		t.Fatalf("GMT-Reuse (%dµs) did not beat BaM (%dµs)",
			tReuse/sim.Microsecond, tBam/sim.Microsecond)
	}
}

func TestDeterminism(t *testing.T) {
	trace := seqTrace(10_000, 300)
	for _, p := range []PolicyKind{PolicyRandom, PolicyReuse} {
		rt1, t1 := run(t, smallConfig(p), trace, 8)
		rt2, t2 := run(t, smallConfig(p), trace, 8)
		if t1 != t2 {
			t.Fatalf("%v: wall times diverged: %d vs %d", p, t1, t2)
		}
		if rt1.Snapshot() != rt2.Snapshot() {
			t.Fatalf("%v: metrics diverged", p)
		}
	}
}

func TestSeedChangesRandomPolicy(t *testing.T) {
	trace := seqTrace(10_000, 300)
	cfg1 := smallConfig(PolicyRandom)
	cfg2 := cfg1
	cfg2.Seed = 99
	rt1, _ := run(t, cfg1, trace, 8)
	rt2, _ := run(t, cfg2, trace, 8)
	if rt1.Snapshot().EvictionsToTier2 == rt2.Snapshot().EvictionsToTier2 {
		t.Log("seeds produced identical placements (possible but unlikely)")
	}
}

func TestWastefulLookupAccounting(t *testing.T) {
	rt, _ := run(t, smallConfig(PolicyTierOrder), seqTrace(20_000, 400), 8)
	m := rt.Snapshot()
	if m.Tier2Lookups != m.Tier2Hits+m.WastefulLookups {
		t.Fatalf("lookups (%d) != useful (%d) + wasteful (%d)",
			m.Tier2Lookups, m.Tier2Hits, m.WastefulLookups)
	}
	if m.WastefulLookups == 0 {
		t.Fatal("over-capacity scan produced no wasteful lookups")
	}
}

func TestTier2HitLatencyCalibration(t *testing.T) {
	// Paper §3.4: retrieving a page from host memory costs ≈50 µs.
	// Construct an unloaded Tier-2 hit: touch a page, cycle it out of
	// Tier-1 into Tier-2, then demand it again with nothing else going
	// on.
	cfg := smallConfig(PolicyTierOrder) // always places victims in Tier-2
	cfg.Tier1Pages = 2
	cfg.Tier2Pages = 16
	eng := sim.NewEngine()
	rt := NewRuntime(eng, cfg)
	trace := []gpu.Access{{Page: 0}, {Page: 1}, {Page: 2}, {Page: 3}}
	g := gpu.New(eng, gpu.Config{Warps: 1, ComputePerAccess: 1}, &gpu.SliceStream{Trace: trace}, rt)
	g.Launch()
	eng.Run()
	if rt.Snapshot().EvictionsToTier2 == 0 {
		t.Fatal("setup failed: nothing placed in Tier-2")
	}
	// Page 0 now lives in Tier-2. Time an isolated demand hit.
	start := eng.Now()
	done := sim.Time(0)
	rt.Access(gpu.Access{Page: 0}, sim.CallFunc, func() { done = eng.Now() }, 0)
	eng.Run()
	lat := done - start
	// The raw retrieval is ≈50µs (paper §3.4); the end-to-end miss also
	// carries the victim's Tier-2 placement performed by the same warp
	// (≈17µs here), so the whole service lands in the 50-70µs band —
	// still well under the ≈130µs SSD path.
	if lat < 40*sim.Microsecond || lat > 72*sim.Microsecond {
		t.Fatalf("unloaded Tier-2 service = %dµs, want 50-70µs (paper §3.4: ≈50µs retrieval)", lat/sim.Microsecond)
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[PolicyKind]string{
		PolicyBaM: "BaM", PolicyTierOrder: "GMT-TierOrder",
		PolicyRandom: "GMT-Random", PolicyReuse: "GMT-Reuse",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		NewRuntime(sim.NewEngine(), cfg)
	}
	bad := DefaultConfig()
	bad.Tier1Pages = 0
	mustPanic("Tier1Pages=0", bad)
	bad2 := DefaultConfig()
	bad2.Policy = PolicyReuse
	bad2.Tier2Pages = 0
	mustPanic("3-tier with Tier2Pages=0", bad2)
	bad3 := DefaultConfig()
	bad3.PageSize = 0
	mustPanic("PageSize=0", bad3)
}

// Property: cross-counter conservation laws hold for random traces and
// policies: every SSD read is a demand fill or a prefetch, every page
// moved to the host is a Tier-2 placement, and every page moved down
// from the host is a Tier-2 hit.
func TestConservationLawsProperty(t *testing.T) {
	f := func(seed int64, policyByte, degree uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := PolicyKind(policyByte % 4)
		trace := make([]gpu.Access, 2500)
		for i := range trace {
			trace[i] = gpu.Access{
				Page:  tier.PageID(rng.Intn(300)),
				Write: rng.Intn(3) == 0,
			}
		}
		cfg := smallConfig(policy)
		cfg.Seed = seed
		cfg.PrefetchDegree = int(degree % 4)
		eng := sim.NewEngine()
		rt := NewRuntime(eng, cfg)
		g := gpu.New(eng, gpu.Config{Warps: 8, ComputePerAccess: 100}, &gpu.SliceStream{Trace: trace}, rt)
		g.Launch()
		eng.Run()
		rt.CheckInvariants()
		m := rt.Snapshot()
		moverStats := rt.mover.Stats()
		return m.SSDReads == m.SSDFills+m.Prefetches &&
			m.PagesToHost == m.EvictionsToTier2 &&
			m.PagesToGPU == m.Tier2Hits &&
			moverStats.PagesUp == m.PagesToHost &&
			moverStats.PagesDown == m.PagesToGPU &&
			m.SSDWrites == m.EvictionsToSSD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: for random traces and any policy, invariants hold and the
// access breakdown is conserved.
func TestRandomTraceInvariantsProperty(t *testing.T) {
	f := func(seed int64, policyByte uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := PolicyKind(policyByte % 4)
		trace := make([]gpu.Access, 3000)
		for i := range trace {
			trace[i] = gpu.Access{
				Page:  tier.PageID(rng.Intn(250)),
				Write: rng.Intn(4) == 0,
			}
		}
		eng := sim.NewEngine()
		cfg := smallConfig(policy)
		cfg.Seed = seed
		rt := NewRuntime(eng, cfg)
		g := gpu.New(eng, gpu.Config{Warps: 8, ComputePerAccess: 100}, &gpu.SliceStream{Trace: trace}, rt)
		g.Launch()
		eng.Run()
		rt.CheckInvariants()
		m := rt.Snapshot()
		return g.Done() &&
			m.Tier1Hits+m.Tier2Hits+m.SSDFills+m.InFlightJoins == m.Accesses &&
			m.Tier2Lookups == m.Tier2Hits+m.WastefulLookups
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
