package gmt

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablations of GMT's design choices. Each
// benchmark regenerates its experiment and reports the headline numbers
// as custom metrics (e.g. reuse_speedup_x), so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result set. Benchmarks run at 1/4 of the
// default experiment scale to keep the full sweep to a few minutes; the
// gmtbench command runs the same drivers at any scale.

import (
	"context"
	"runtime"
	"testing"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/raceflag"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
	"github.com/gmtsim/gmt/internal/xfer"
)

// BenchmarkEngineEventRetention is the event-closure retention
// regression: eventHeap.Pop used to shrink the heap without zeroing the
// vacated slot, keeping every dispatched closure — and the buffers it
// captured — reachable from the backing array for the engine's
// lifetime. The retained_MB metric measures live heap after a full run
// with the engine still referenced; pre-fix it scales with the total
// event count (~64 MB here), post-fix it stays near zero.
func BenchmarkEngineEventRetention(b *testing.B) {
	const events = 1024
	const payload = 64 * 1024
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		for j := 0; j < events; j++ {
			buf := make([]byte, payload)
			eng.AtCall(sim.Time(j+1), sim.CallFunc, func() { buf[0]++ }, 0)
		}
		eng.Run()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapAlloc)/1e6, "retained_MB")
		runtime.KeepAlive(eng)
	}
}

// BenchmarkParallelPrewarm runs the Figure 8 sweep through the parallel
// prewarmer and reports how many simulations the pool executed; the
// rendered figure afterwards must be served entirely from the memo.
func BenchmarkParallelPrewarm(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rep, err := exp.Prewarm(context.Background(), s, []string{"fig8"}, workers, nil)
		if err != nil {
			b.Fatalf("prewarm failed: %v", err)
		}
		reportFig8(b, s)
		b.ReportMetric(float64(rep.Sims), "prewarm_sims")
		b.ReportMetric(float64(rep.JobsPlanned), "prewarm_jobs")
	}
}

// BenchmarkSingleRun measures one complete Figure 8-scale simulation —
// workload generation excluded, everything else (engine, runtime, GPU,
// devices) included. allocs/op here is the whole-run allocation budget
// the hot-path work keeps bounded: with pooled events and dense
// directories it scales with the footprint (arena chunks, device
// buffers), not with the access count.
func BenchmarkSingleRun(b *testing.B) {
	scale := benchScale()
	trace := workload.NewMultiVectorAdd(scale).Trace()
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyReuse
	cfg.Tier1Pages = scale.Tier1Pages
	cfg.Tier2Pages = scale.Tier2Pages
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCore(cfg, trace)
	}
}

// TestSingleRunAllocGate is the CI gate behind BenchmarkSingleRun: one
// complete Figure 8-scale simulation allocates at most 169 objects. The
// budget scales with the footprint (arena chunks, device buffers), not
// with the access count, so a per-access or per-miss allocation on any
// path breaks it by thousands. The count is averaged over 20 runs:
// single runs differ by one object.
func TestSingleRunAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	scale := benchScale()
	trace := workload.NewMultiVectorAdd(scale).Trace()
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyReuse
	cfg.Tier1Pages = scale.Tier1Pages
	cfg.Tier2Pages = scale.Tier2Pages
	if n := testing.AllocsPerRun(20, func() { runCore(cfg, trace) }); n > 169 {
		t.Errorf("one Figure 8-scale run = %.0f allocs, want <= 169", n)
	}
}

// TestRecycledRunAllocGate: a GMT-Reuse run at Figure 8 scale on a
// recycled {engine, runtime} pair — Reset, then a fresh GPU for the
// kernel, as exp runs every simulation — allocates at most 8 objects
// and 16 KB, whatever the trace length: Reset keeps the Reuse sampler's
// distance tracker, the backfill window and the runtime's own random
// stream, so only the GPU and its warp array are new. Regrowing the
// sampler on every run cost 27–37 objects and 200 KB–1.1 MB, growing
// with the trace.
func TestRecycledRunAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	scale := benchScale()
	for _, w := range []workload.Workload{
		workload.NewMultiVectorAdd(scale), workload.NewSrad(scale), workload.NewBFS(workload.NewGraphSet(scale, 42)),
	} {
		trace := w.Trace()
		cfg := core.DefaultConfig()
		cfg.Policy = core.PolicyReuse
		cfg.Tier1Pages = scale.Tier1Pages
		cfg.Tier2Pages = scale.Tier2Pages
		cfg.FootprintPages = int(w.Pages())
		eng := sim.NewEngine()
		rt := core.NewRuntime(eng, cfg)
		run := func() {
			rt.Reset(cfg)
			g := gpu.New(eng, gpu.DefaultConfig(), &gpu.SliceStream{Trace: trace}, rt)
			g.Launch()
			eng.Run()
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		objects := testing.AllocsPerRun(10, run)
		if kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024; objects > 8 || kb > 16 {
			t.Errorf("%s (%d accesses): a recycled run allocated %.0f objects and %.1f KB, want <= 8 and <= 16",
				w.Name(), len(trace), objects, kb)
		}
	}
}

// noopDone is the completion the manager benchmarks pass: they time the
// manager, not a warp.
func noopDone(any, int64) {}

// warmResident builds a runtime with every footprint page resident in
// Tier-1 and quiescent: the steady state the hit benchmark and gate
// replay against.
func warmResident(eng *sim.Engine) *core.Runtime {
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyBaM
	cfg.Tier1Pages = 256
	cfg.FootprintPages = 128
	rt := core.NewRuntime(eng, cfg)
	for p := 0; p < 128; p++ {
		rt.Access(gpu.Access{Page: tier.PageID(p)}, noopDone, nil, 0)
	}
	eng.Run()
	return rt
}

// BenchmarkPerAccessHit measures the steady-state cost of one Tier-1
// hit: a resident Runtime.Access, the call a hitting warp makes per
// access. Steady state is 0 allocs/op, gated by TestPerAccessAllocGate.
func BenchmarkPerAccessHit(b *testing.B) {
	rt := warmResident(sim.NewEngine())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rt.Access(gpu.Access{Page: tier.PageID(i % 128)}, noopDone, nil, 0) {
			b.Fatal("resident access did not complete inline")
		}
	}
}

// warmMissTorture builds a runtime whose footprint (512 pages) is 2.7x
// the combined tier capacity (64 + 128), so a cyclic scan misses on
// every access forever: each miss evicts from Tier-1 into Tier-2, whose
// own eviction spills to the SSD. One full warm lap grows every arena —
// page directory, fetch/placement pools, waiter nodes, NVMe requests,
// transfer moves, event records — to steady capacity.
func warmMissTorture(eng *sim.Engine, policy core.PolicyKind) *core.Runtime {
	cfg := core.DefaultConfig()
	cfg.Policy = policy
	cfg.Tier1Pages = 64
	cfg.Tier2Pages = 128
	cfg.FootprintPages = 512
	rt := core.NewRuntime(eng, cfg)
	for p := 0; p < 512; p++ {
		rt.Access(gpu.Access{Page: tier.PageID(p), Write: p%3 == 0}, noopDone, nil, 0)
	}
	eng.Run()
	return rt
}

// BenchmarkMissPath measures the full miss pipeline in steady state —
// Runtime.Access through Tier-1 eviction, Tier-2 (or SSD) fetch, device
// completion, transfer, and the warp wakeup callback — with every
// access a guaranteed miss. ns/op is the end-to-end simulated-miss cost;
// the hard gate is 0 allocs/op: the typed-callback records, pooled
// waiter nodes, and event arena must fully absorb the per-miss churn.
func BenchmarkMissPath(b *testing.B) {
	eng := sim.NewEngine()
	rt := warmMissTorture(eng, core.PolicyReuse)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Access(gpu.Access{Page: tier.PageID(i % 512)}, noopDone, nil, 0)
		eng.Run()
	}
}

// BenchmarkEvictStorm measures the worst-case eviction cascade: every
// access is a write miss, so each one dirties a page that a later miss
// must evict dirty from Tier-1 into Tier-2, spilling a dirty Tier-2
// victim into an SSD write-back. One iteration pushes a 256-access storm
// and drains it. Gate: 0 allocs/op — the write-back chain (tier moves,
// NVMe writes, completion records) runs entirely on pooled objects.
func BenchmarkEvictStorm(b *testing.B) {
	eng := sim.NewEngine()
	rt := warmMissTorture(eng, core.PolicyTierOrder)
	const storm = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < storm; j++ {
			rt.Access(gpu.Access{Page: tier.PageID((i*storm + j) % 512), Write: true}, noopDone, nil, 0)
		}
		eng.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*storm), "ns/miss")
}

// TestMissPathAllocGate is the static gate behind BenchmarkMissPath and
// BenchmarkEvictStorm: once warm, neither a clean miss (fetch + evict)
// nor a dirty write miss (fetch + dirty eviction + write-back) may
// allocate — covering both GMT policies' miss pipelines end to end.
// Each input queues burst misses before one drain: single misses,
// alternating clean and dirty, and BenchmarkEvictStorm's storm of 256
// write misses, which runs the dirty-eviction cascade with many fills
// in flight.
func TestMissPathAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	inputs := []struct {
		name       string
		burst      int // misses queued before one drain
		writeEvery int // every writeEvery-th miss is a write
		runs       int
	}{
		{"miss", 1, 2, 500},
		{"storm", 256, 1, 50},
	}
	for _, p := range []core.PolicyKind{core.PolicyReuse, core.PolicyTierOrder} {
		for _, in := range inputs {
			eng := sim.NewEngine()
			rt := warmMissTorture(eng, p)
			i := 0
			n := testing.AllocsPerRun(in.runs, func() {
				for j := 0; j < in.burst; j++ {
					rt.Access(gpu.Access{Page: tier.PageID(i % 512), Write: i%in.writeEvery == 0}, noopDone, nil, 0)
					i++
				}
				eng.Run()
			})
			if n != 0 {
				t.Errorf("%v %s: steady-state miss path = %.1f allocs/op, want 0", p, in.name, n)
			}
		}
	}
}

// TestPerAccessAllocGate is the CI gate behind BenchmarkPerAccessHit:
// once all pages are resident, Runtime.Access through tier bookkeeping
// performs zero allocations.
func TestPerAccessAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	eng := sim.NewEngine()
	rt := warmResident(eng)
	i := 0
	n := testing.AllocsPerRun(500, func() {
		if !rt.Access(gpu.Access{Page: tier.PageID(i % 128), Write: i%7 == 0}, noopDone, nil, 0) {
			t.Fatal("resident access did not complete inline")
		}
		i++
	})
	if n != 0 {
		t.Errorf("steady-state per-access path = %.1f allocs/op, want 0", n)
	}
	eng.Run()
}

// runCore executes a trace against a core runtime configuration and
// returns the virtual wall time.
func runCore(cfg core.Config, trace []gpu.Access) sim.Time {
	return runCoreWarps(cfg, trace, gpu.DefaultConfig().Warps)
}

func runCoreWarps(cfg core.Config, trace []gpu.Access, warps int) sim.Time {
	eng := sim.NewEngine()
	rt := core.NewRuntime(eng, cfg)
	gcfg := gpu.DefaultConfig()
	gcfg.Warps = warps
	g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: trace}, rt)
	g.Launch()
	eng.Run()
	return eng.Now()
}

func benchScale() workload.Scale {
	return workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.Table2(s)
		var maxIO int64
		for _, r := range rows {
			if r.TotalIOBytes > maxIO {
				maxIO = r.TotalIOBytes
			}
		}
		b.ReportMetric(float64(maxIO)/1e9, "max_io_GB")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.Figure4(s)
		b.ReportMetric(rows[0].Correlation, "mva_vtd_rd_corr")
		b.ReportMetric(rows[1].Correlation, "pagerank_vtd_rd_corr")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, _ := exp.Figure6a(xfer.DefaultConfig())
		cross := 0
		for _, r := range a {
			if r.ZeroCopy32Micros <= r.DMAMicros {
				cross = r.Pages
				break
			}
		}
		rows, _ := exp.Figure6b(xfer.DefaultConfig())
		b.ReportMetric(float64(cross), "crossover_pages")
		b.ReportMetric(rows[0].Hybrid32, "hybrid32_skew0_GBps")
		b.ReportMetric(rows[len(rows)-1].Hybrid32, "hybrid32_skew1_GBps")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.Figure7(s)
		for _, r := range rows {
			if r.App == "Hotspot" {
				b.ReportMetric(r.EvictLong, "hotspot_tier3_bias")
			}
			if r.App == "Srad" {
				b.ReportMetric(r.EvictMedium, "srad_tier2_bias")
			}
		}
	}
}

// reportFig8 runs Figure 8 and reports average speedups; shared by the
// Figure 8 benchmark and the aggregate harness.
func reportFig8(b *testing.B, s *exp.Suite) []exp.Figure8Row {
	rows, _ := exp.Figure8(s)
	avg := func(p string) float64 {
		t := 0.0
		for _, r := range rows {
			t += r.Speedup[p]
		}
		return t / float64(len(rows))
	}
	b.ReportMetric(avg("GMT-Reuse"), "reuse_speedup_x")
	b.ReportMetric(avg("GMT-Random"), "random_speedup_x")
	b.ReportMetric(avg("GMT-TierOrder"), "tierorder_speedup_x")
	return rows
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFig8(b, exp.NewSuite(benchScale()))
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.Figure9(s)
		t, n := 0.0, 0
		for _, r := range rows {
			if r.Predictions > 0 {
				t += r.Accuracy
				n++
			}
		}
		b.ReportMetric(t/float64(n), "mean_prediction_accuracy")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.Figure10(s)
		var reuseWaste, toWaste float64
		for _, r := range rows {
			reuseWaste += r.WastefulLookups["GMT-Reuse"]
			toWaste += r.WastefulLookups["GMT-TierOrder"]
		}
		n := float64(len(rows))
		b.ReportMetric(reuseWaste/n, "reuse_wasteful_lookup_rate")
		b.ReportMetric(toWaste/n, "tierorder_wasteful_lookup_rate")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := exp.Figure11(exp.NewSuite(benchScale()))
		t := 0.0
		for _, r := range rows {
			t += r.Speedup["GMT-Reuse"]
		}
		b.ReportMetric(t/float64(len(rows)), "reuse_speedup_osf4_x")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		byRatio, _ := exp.Figure12(exp.NewSuite(benchScale()))
		for _, ratio := range []int{2, 4, 8} {
			t := 0.0
			rows := byRatio[ratio]
			for _, r := range rows {
				t += r.Speedup["GMT-Reuse"]
			}
			switch ratio {
			case 2:
				b.ReportMetric(t/float64(len(rows)), "reuse_speedup_ratio2_x")
			case 4:
				b.ReportMetric(t/float64(len(rows)), "reuse_speedup_ratio4_x")
			case 8:
				b.ReportMetric(t/float64(len(rows)), "reuse_speedup_ratio8_x")
			}
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := exp.Figure13(exp.NewSuite(benchScale()))
		t := 0.0
		for _, r := range rows {
			t += r.Speedup["GMT-Reuse"]
		}
		b.ReportMetric(t/float64(len(rows)), "reuse_speedup_2xT1_x")
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.Figure14(s)
		var hmm, reuse float64
		for _, r := range rows {
			hmm += r.HMMSpeedup
			reuse += r.ReuseSpeedup
		}
		n := float64(len(rows))
		b.ReportMetric(hmm/n, "hmm_speedup_x")
		b.ReportMetric(reuse/n, "reuse_speedup_x")
		b.ReportMetric((reuse/n)/(hmm/n), "reuse_over_hmm_x")
	}
}

// Oracle study: fraction of the Belady-style offline bound's gain that
// GMT-Reuse's practical prediction attains.
func BenchmarkOracleGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.OracleGap(s)
		var attained, oracle float64
		for _, r := range rows {
			attained += r.Attained
			oracle += r.OracleSpeedup
		}
		n := float64(len(rows))
		b.ReportMetric(attained/n, "mean_gain_attained")
		b.ReportMetric(oracle/n, "oracle_speedup_x")
	}
}

// Extension study: §5 async eviction and §2 sequential prefetch.
func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.Extensions(s)
		var async, pf float64
		for _, r := range rows {
			async += r.AsyncSpeedup
			pf += r.PrefetchSpeedup
		}
		n := float64(len(rows))
		b.ReportMetric(async/n, "async_eviction_x")
		b.ReportMetric(pf/n, "prefetch4_x")
	}
}

// Ablation: §2.1.3's pipelined regression publication vs waiting for
// the full sample target.
func BenchmarkAblationPipelinedRegression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.RegressionWarmup(s)
		var pipe, end float64
		for _, r := range rows {
			pipe += r.EarlyHitRatePipelined
			end += r.EarlyHitRateUnpipelined
		}
		n := float64(len(rows))
		b.ReportMetric(pipe/n, "early_t2hit_pipelined")
		b.ReportMetric(end/n, "early_t2hit_endonly")
	}
}

// Ablation: the Figure 5 predictor against 1-level and learning-free
// variants.
func BenchmarkAblationPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.PredictorAblation(s)
		agg := map[string]float64{}
		for _, r := range rows {
			for k, v := range r.Speedup {
				agg[k] += v
			}
		}
		n := float64(len(rows))
		b.ReportMetric(agg["markov"]/n, "markov_speedup_x")
		b.ReportMetric(agg["last-class"]/n, "lastclass_speedup_x")
		b.ReportMetric(agg["static"]/n, "static_speedup_x")
	}
}

// Sensitivity: storage generations (Gen3 -> near-memory) and drive
// arrays erode the host tier's advantage.
func BenchmarkSSDSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(benchScale())
		rows, _ := exp.SSDSensitivity(s)
		byGen := map[string][]float64{}
		for _, r := range rows {
			byGen[r.Gen] = append(byGen[r.Gen], r.Speedup)
		}
		avg := func(g string) float64 {
			t := 0.0
			for _, x := range byGen[g] {
				t += x
			}
			return t / float64(len(byGen[g]))
		}
		b.ReportMetric(avg("Gen3x4 (paper)"), "gen3_reuse_speedup_x")
		b.ReportMetric(avg("near-memory"), "near_memory_reuse_speedup_x")
		counts, _ := exp.SSDCountSweep(s)
		var one, four float64
		var n1, n4 int
		for _, r := range counts {
			if r.Drives == 1 {
				one += r.Speedup
				n1++
			}
			if r.Drives == 4 {
				four += r.Speedup
				n4++
			}
		}
		b.ReportMetric(one/float64(n1), "one_drive_reuse_speedup_x")
		b.ReportMetric(four/float64(n4), "four_drive_reuse_speedup_x")
	}
}

// Ablation: §2's up-path bypass vs staging SSD fills through Tier-2.
func BenchmarkAblationUpPathBypass(b *testing.B) {
	scale := benchScale()
	srad := workload.NewSrad(scale)
	trace := srad.Trace()
	for i := 0; i < b.N; i++ {
		bypass := core.DefaultConfig()
		bypass.Policy = core.PolicyReuse
		bypass.Tier1Pages = scale.Tier1Pages
		bypass.Tier2Pages = scale.Tier2Pages
		staged := bypass
		staged.UpPathThroughTier2 = true
		// Few warps: the extra per-fill hop latency cannot hide behind
		// massive access parallelism.
		tB := runCoreWarps(bypass, trace, 16)
		tS := runCoreWarps(staged, trace, 16)
		b.ReportMetric(float64(tS)/float64(tB), "staging_slowdown_x")
	}
}

// Ablation: §2.2's backfill heuristic on a pure cyclic scan (Hotspot).
func BenchmarkAblationBackfill(b *testing.B) {
	scale := benchScale()
	hotspot := workload.NewHotspot(scale)
	trace := hotspot.Trace()
	pub := make([]Access, len(trace))
	for i, a := range trace {
		pub[i] = Access{Page: int64(a.Page), Write: a.Write}
	}
	cfg := DefaultConfig()
	cfg.Policy = Reuse
	cfg.Tier1Pages = scale.Tier1Pages
	cfg.Tier2Pages = scale.Tier2Pages
	for i := 0; i < b.N; i++ {
		on := RunTrace(cfg, "hotspot", pub)
		off := cfg
		off.BackfillThreshold = 2
		offRes := RunTrace(off, "hotspot", pub)
		b.ReportMetric(float64(offRes.WallTime)/float64(on.WallTime), "backfill_gain_x")
	}
}

// Ablation: forced transfer mechanisms vs Hybrid-32T on a
// Tier-2-friendly app (Srad).
func BenchmarkAblationTransferMode(b *testing.B) {
	scale := benchScale()
	srad := workload.NewSrad(scale)
	trace := srad.Trace()
	run := func(mode xfer.Mode) float64 {
		cfg := core.DefaultConfig()
		cfg.Policy = core.PolicyReuse
		cfg.Tier1Pages = scale.Tier1Pages
		cfg.Tier2Pages = scale.Tier2Pages
		cfg.Transfer.Mode = mode
		return float64(runCore(cfg, trace))
	}
	for i := 0; i < b.N; i++ {
		hybrid := run(xfer.ModeHybrid)
		dma := run(xfer.ModeDMA)
		zc := run(xfer.ModeZeroCopy)
		b.ReportMetric(dma/hybrid, "hybrid_vs_dma_x")
		b.ReportMetric(zc/hybrid, "hybrid_vs_zerocopy_x")
	}
}

// Ablation: sampling budget sensitivity for GMT-Reuse (Backprop).
func BenchmarkAblationSampleTarget(b *testing.B) {
	scale := benchScale()
	bp := workload.NewBackprop(scale)
	trace := bp.Trace()
	for i := 0; i < b.N; i++ {
		var times []float64
		for _, target := range []int{1000, 20_000, 100_000} {
			cfg := core.DefaultConfig()
			cfg.Policy = core.PolicyReuse
			cfg.Tier1Pages = scale.Tier1Pages
			cfg.Tier2Pages = scale.Tier2Pages
			cfg.SampleTarget = target
			times = append(times, float64(runCore(cfg, trace)))
		}
		b.ReportMetric(times[0]/times[1], "tiny_vs_default_sampling_x")
		b.ReportMetric(times[2]/times[1], "huge_vs_default_sampling_x")
	}
}
