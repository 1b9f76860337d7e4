package gmt

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func testScale() Scale {
	return Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2}
}

func testConfig(p Policy) Config {
	cfg := DefaultConfig()
	cfg.Policy = p
	cfg.Tier1Pages = 256
	cfg.Tier2Pages = 1024
	cfg.Warps = 64
	return cfg
}

func TestSuiteHasNineApps(t *testing.T) {
	ws := Suite(testScale())
	if len(ws) != 9 {
		t.Fatalf("suite = %d apps", len(ws))
	}
	names := WorkloadNames()
	for i, w := range ws {
		if w.Name() != names[i] {
			t.Fatalf("app %d = %s, want %s", i, w.Name(), names[i])
		}
		if w.Pages() <= 0 {
			t.Fatalf("%s: no pages", w.Name())
		}
	}
}

func TestRunAllPolicies(t *testing.T) {
	w := Suite(testScale())[1] // Pathfinder: cheap
	for _, p := range []Policy{BaM, TierOrder, Random, Reuse, HMM} {
		res := Run(testConfig(p), w)
		if res.Policy != p.String() {
			t.Fatalf("policy label %q != %q", res.Policy, p.String())
		}
		if res.WallTime <= 0 || res.Accesses == 0 {
			t.Fatalf("%v: empty result %+v", p, res)
		}
		if res.Tier1Hits+res.Tier2Hits+res.SSDFills+res.InFlightJoins != res.Accesses {
			t.Fatalf("%v: access breakdown broken", p)
		}
	}
}

func TestHeadlineThroughPublicAPI(t *testing.T) {
	ws := Suite(testScale())
	var srad Workload
	for _, w := range ws {
		if w.Name() == "Srad" {
			srad = w
		}
	}
	bam := Run(testConfig(BaM), srad)
	reuse := Run(testConfig(Reuse), srad)
	hmm := Run(testConfig(HMM), srad)
	if sp := reuse.Speedup(bam); sp < 1.2 {
		t.Fatalf("GMT-Reuse speedup on Srad = %.2f, want > 1.2", sp)
	}
	if sp := hmm.Speedup(bam); sp >= 1.0 {
		t.Fatalf("HMM speedup = %.2f, want < 1.0", sp)
	}
}

func TestRunTraceCustom(t *testing.T) {
	// Cyclic scan over 300 pages with 64-page Tier-1 and 512-page
	// Tier-2: the 3-tier run must hit Tier-2.
	var trace []Access
	for round := 0; round < 20; round++ {
		for p := int64(0); p < 300; p++ {
			trace = append(trace, Access{Page: p})
		}
	}
	cfg := testConfig(Reuse)
	cfg.Tier1Pages = 64
	cfg.Tier2Pages = 512
	res := RunTrace(cfg, "scan", trace)
	if res.App != "scan" {
		t.Fatalf("app = %q", res.App)
	}
	if res.Tier2Hits == 0 {
		t.Fatal("no Tier-2 hits on cyclic scan")
	}
	bam := cfg
	bam.Policy = BaM
	if RunTrace(bam, "scan", trace).Tier2Hits != 0 {
		t.Fatal("BaM hit Tier-2")
	}
}

func TestBackfillDisable(t *testing.T) {
	var trace []Access
	for round := 0; round < 15; round++ {
		for p := int64(0); p < 1200; p++ { // beyond Tier-1+Tier-2
			trace = append(trace, Access{Page: p})
		}
	}
	cfg := testConfig(Reuse)
	cfg.Tier1Pages = 64
	cfg.Tier2Pages = 256
	on := RunTrace(cfg, "scan", trace)
	cfg.BackfillThreshold = 2 // disabled
	off := RunTrace(cfg, "scan", trace)
	if on.BackfillPlaced == 0 || off.BackfillPlaced != 0 {
		t.Fatalf("backfill control broken: on=%d off=%d", on.BackfillPlaced, off.BackfillPlaced)
	}
	if on.Tier2Hits <= off.Tier2Hits {
		t.Fatal("backfill did not improve Tier-2 hits on a scan")
	}
}

func TestAnalyzePublic(t *testing.T) {
	s := testScale()
	for _, w := range Suite(s) {
		if w.Name() != "Hotspot" {
			continue
		}
		c := Analyze(w, s)
		if c.EvictTier3 < 0.99 {
			t.Fatalf("Hotspot Tier-3 bias = %.2f", c.EvictTier3)
		}
		if c.ReusePct < 0.7 || c.ReusePct > 0.9 {
			t.Fatalf("Hotspot reuse = %.2f", c.ReusePct)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	w := Suite(testScale())[1]
	a := Run(testConfig(Reuse), w)
	b := Run(testConfig(Reuse), w)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical configs diverged")
	}
}

func TestHistoryThroughFacade(t *testing.T) {
	cfg := testConfig(Reuse)
	cfg.HistorySample = 500
	w := Suite(testScale())[4] // Srad
	res := Run(cfg, w)
	if len(res.History) < 10 {
		t.Fatalf("history points = %d, want >= 10", len(res.History))
	}
	last := res.History[len(res.History)-1]
	if last.Accesses > res.Accesses || last.SSDReads > res.SSDReads {
		t.Fatal("history exceeds final totals")
	}
	// No history without the knob.
	cfg.HistorySample = 0
	if r := Run(cfg, w); len(r.History) != 0 {
		t.Fatal("history recorded without HistorySample")
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		BaM: "BaM", TierOrder: "GMT-TierOrder", Random: "GMT-Random",
		Reuse: "GMT-Reuse", HMM: "HMM",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d -> %q, want %q", p, p.String(), s)
		}
	}
}

func TestOraclePolicyThroughFacade(t *testing.T) {
	w := Suite(testScale())[4] // Srad
	bam := Run(testConfig(BaM), w)
	oracle := Run(testConfig(Oracle), w)
	if oracle.Policy != "GMT-Oracle" {
		t.Fatalf("policy = %q", oracle.Policy)
	}
	if oracle.SSDReads >= bam.SSDReads {
		t.Fatalf("oracle reads %d >= BaM reads %d", oracle.SSDReads, bam.SSDReads)
	}
}

// TestEmptyTraceEveryPolicy: a trace with no memory access — none at
// all, or only barriers — is a zero-length run under every policy,
// Oracle included (its future is empty, not missing).
func TestEmptyTraceEveryPolicy(t *testing.T) {
	barriers := []Access{{Page: barrierPage}, {Page: barrierPage}}
	for _, p := range policyNames {
		for _, trace := range [][]Access{nil, barriers} {
			res := RunTrace(testConfig(p), "empty", trace)
			if res.Accesses != 0 || res.WallTime != 0 {
				t.Errorf("%v on %d barriers: %d accesses in %v, want none in 0s",
					p, len(trace), res.Accesses, res.WallTime)
			}
		}
	}
}

func TestExtensionKnobsThroughFacade(t *testing.T) {
	var trace []Access
	for p := int64(0); p < 2000; p++ {
		trace = append(trace, Access{Page: p})
	}
	cfg := testConfig(BaM)
	cfg.Warps = 4
	cfg.PrefetchDegree = 4
	res := RunTrace(cfg, "stream", trace)
	// Prefetch stats surface through the public Result... via fewer
	// stalls: compare against no prefetch.
	base := cfg
	base.PrefetchDegree = 0
	if res.WallTime >= RunTrace(base, "stream", trace).WallTime {
		t.Fatal("prefetch knob had no effect")
	}
	async := testConfig(TierOrder)
	async.AsyncEviction = true
	w := Suite(testScale())[4]
	if Run(async, w).WallTime >= Run(testConfig(TierOrder), w).WallTime {
		t.Fatal("async-eviction knob had no effect on TierOrder")
	}
}

func TestTraceIORoundTripFacade(t *testing.T) {
	trace := []Access{{Page: 1}, {Page: 2, Write: true}}
	var buf strings.Builder
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != trace[0] || got[1] != trace[1] {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestSyntheticWorkloadsThroughFacade(t *testing.T) {
	cases := []Workload{
		NewStrided(500, 7, 2),
		NewUniformRandom(500, 3000, 0.1, 4),
		NewPointerChase(500, 2, 4),
	}
	cfg := testConfig(Reuse)
	for _, w := range cases {
		if w.Pages() != 500 {
			t.Fatalf("%s: pages = %d", w.Name(), w.Pages())
		}
		res := Run(cfg, w)
		if res.Accesses == 0 || res.WallTime <= 0 {
			t.Fatalf("%s: empty run", w.Name())
		}
		if res.Tier1Hits+res.Tier2Hits+res.SSDFills+res.InFlightJoins != res.Accesses {
			t.Fatalf("%s: breakdown broken", w.Name())
		}
	}
	// Pointer-chase over a Tier-2-sized cycle: the 3-tier runtime must
	// serve the second round largely from host memory.
	chase := NewPointerChase(700, 3, 9) // 700 pages between T1 (256) and T1+T2 (1280)
	res := Run(cfg, chase)
	if res.Tier2Hits == 0 {
		t.Fatal("pointer chase never hit Tier-2")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Tier1Pages <= 0 || cfg.Tier2Pages != 4*cfg.Tier1Pages {
		t.Fatalf("default tiers %d/%d, want 4x ratio", cfg.Tier1Pages, cfg.Tier2Pages)
	}
	if cfg.ComputePerAccess <= 0 || cfg.ComputePerAccess > time.Microsecond {
		t.Fatalf("compute per access = %v", cfg.ComputePerAccess)
	}
}
