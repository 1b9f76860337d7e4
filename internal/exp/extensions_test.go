package exp

import (
	"testing"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
)

func TestOracleGapShape(t *testing.T) {
	rows, table := OracleGap(shared)
	if len(rows) != 9 || table.Rows() != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	var attained []float64
	for _, r := range rows {
		// Belady's guarantee is about demand misses: the oracle must
		// not read the SSD more than the practical predictor. (Wall
		// time can occasionally favor GMT-Reuse — its dirty-page
		// retention avoids writebacks the read-optimal oracle incurs;
		// see EXPERIMENTS.md.)
		if r.OracleReads > r.ReuseReads {
			t.Errorf("%s: oracle reads %d > Reuse reads %d", r.App, r.OracleReads, r.ReuseReads)
		}
		if r.OracleSpeedup < r.ReuseSpeedup-0.15 {
			t.Errorf("%s: oracle wall time far below Reuse (%.2f vs %.2f)",
				r.App, r.OracleSpeedup, r.ReuseSpeedup)
		}
		attained = append(attained, r.Attained)
	}
	// GMT-Reuse should capture a substantial share of the offline
	// headroom on average — the paper's thesis that a practical RRD
	// approximation suffices.
	if m := mean(attained); m < 0.4 {
		t.Fatalf("mean attained gain %.2f < 0.4", m)
	}
}

func TestPredictorAblation(t *testing.T) {
	rows, _ := PredictorAblation(shared)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	var markov, last, static []float64
	for _, r := range rows {
		markov = append(markov, r.Speedup["markov"])
		last = append(last, r.Speedup["last-class"])
		static = append(static, r.Speedup["static"])
		// Every learning predictor must score predictions on the
		// high-reuse apps.
		if r.App == "Hotspot" && (r.Accuracy["markov"] < 0.5 || r.Accuracy["last-class"] < 0.5) {
			t.Errorf("Hotspot accuracies too low: %+v", r.Accuracy)
		}
	}
	if mean(markov) < mean(static) {
		t.Fatalf("markov mean %.2f below static %.2f", mean(markov), mean(static))
	}
	// A 1-level history is competitive in aggregate (mispredicting
	// toward Medium is often benign); the paper's claim is that 2
	// levels *suffice*, which the alternating-pattern accuracy check
	// above discriminates. Guard against the Markov predictor falling
	// meaningfully behind.
	if mean(markov) < mean(last)-0.12 {
		t.Fatalf("markov mean %.2f far below last-class %.2f", mean(markov), mean(last))
	}
}

// TestHeadlineSurvivesKernelBarriers re-runs the core comparison with
// kernel-wide barriers between iterations — the stricter overlap model
// where miss latency cannot hide across kernel launches. The 3-tier
// advantage must survive.
func TestHeadlineSurvivesKernelBarriers(t *testing.T) {
	sc := testScale()
	srad := workload.NewSrad(sc)
	srad.Barriers = true
	hotspot := workload.NewHotspot(sc)
	hotspot.Barriers = true
	for _, w := range []workload.Workload{srad, hotspot} {
		trace := w.Trace()
		hasBarrier := false
		for _, a := range trace {
			if a.IsBarrier() {
				hasBarrier = true
				break
			}
		}
		if !hasBarrier {
			t.Fatalf("%s: barrier flag emitted no barriers", w.Name())
		}
		wall := func(p core.PolicyKind) int64 {
			cfg := core.DefaultConfig()
			cfg.Policy = p
			cfg.Tier1Pages = sc.Tier1Pages
			cfg.Tier2Pages = sc.Tier2Pages
			eng := sim.NewEngine()
			rt := core.NewRuntime(eng, cfg)
			g := gpuNew(shared, eng, trace, rt)
			g.Launch()
			eng.Run()
			if !g.Done() {
				t.Fatalf("%s: barriered kernel deadlocked", w.Name())
			}
			if g.Barriers() == 0 {
				t.Fatalf("%s: no barriers completed", w.Name())
			}
			return eng.Now()
		}
		bam, reuse := wall(core.PolicyBaM), wall(core.PolicyReuse)
		if float64(bam)/float64(reuse) < 1.25 {
			t.Errorf("%s with barriers: GMT-Reuse speedup %.2f < 1.25",
				w.Name(), float64(bam)/float64(reuse))
		}
	}
}

// TestOracleFutureSkipsBarriers: an oracle's future is the sequence the
// runtime sees, one entry per memory access, and barrier tokens never
// reach the runtime. So a suite's oracle run over Srad with barriers
// (3 among 4211 entries) equals a direct run whose future drops them; a
// future that kept them would read every next use after the first
// barrier one access off.
func TestOracleFutureSkipsBarriers(t *testing.T) {
	sc := workload.Scale{Tier1Pages: 64, Tier2Pages: 256, Oversubscription: 2}
	srad := workload.NewSrad(sc)
	srad.Barriers = true
	trace := srad.Trace()
	var future []tier.PageID
	for _, a := range trace {
		if !a.IsBarrier() {
			future = append(future, a.Page)
		}
	}
	if len(trace) != 4211 || len(trace)-len(future) != 3 {
		t.Fatalf("Srad with barriers: %d entries, %d barriers; want 4211 and 3", len(trace), len(trace)-len(future))
	}

	s := NewSuite(sc)
	cfg := s.config(core.PolicyOracle)
	got := s.RunConfig(srad, cfg)

	cfg.Future = future
	cfg.FootprintPages = int(srad.Pages())
	eng := sim.NewEngine()
	g := gpuNew(s, eng, trace, core.NewRuntime(eng, cfg))
	g.Launch()
	eng.Run()
	if got.WallTime != eng.Now() || eng.Now() != 22_575_155 {
		t.Fatalf("oracle over Srad with barriers: suite run %d ns, run on the barrier-free future %d ns; want both 22575155",
			got.WallTime, eng.Now())
	}
}

func TestRegressionWarmup(t *testing.T) {
	rows, table := RegressionWarmup(shared)
	if len(rows) != 3 || table.Rows() != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var earlyPipe, earlyEnd []float64
	for _, r := range rows {
		earlyPipe = append(earlyPipe, r.EarlyHitRatePipelined)
		earlyEnd = append(earlyEnd, r.EarlyHitRateUnpipelined)
		// Full-run speedup must not collapse under either mode.
		if r.SpeedupPipelined < 1.0 {
			t.Errorf("%s: pipelined speedup %.2f < 1", r.App, r.SpeedupPipelined)
		}
	}
	// §2.1.3's claim: pipelined batch publication places better early.
	if mean(earlyPipe) < mean(earlyEnd) {
		t.Fatalf("pipelined early hit rate %.3f below end-only %.3f",
			mean(earlyPipe), mean(earlyEnd))
	}
}

func TestExtensionsShape(t *testing.T) {
	rows, _ := Extensions(shared)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	var async []float64
	for _, r := range rows {
		async = append(async, r.AsyncSpeedup)
		// Neither extension should catastrophically regress any app.
		if r.AsyncSpeedup < 0.9 {
			t.Errorf("%s: async eviction regressed to %.2f", r.App, r.AsyncSpeedup)
		}
		if r.PrefetchSpeedup < 0.8 {
			t.Errorf("%s: prefetch regressed to %.2f", r.App, r.PrefetchSpeedup)
		}
	}
	// Async eviction (§5) must not hurt GMT-Reuse on average (its
	// placements are already selective, so the gain is modest here;
	// the large win is TierOrder's, covered in internal/core tests).
	if m := mean(async); m < 0.97 {
		t.Fatalf("async eviction mean speedup %.2f < 0.97", m)
	}
}
