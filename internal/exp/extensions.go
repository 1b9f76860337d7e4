package exp

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/workload"
)

// RunConfig simulates a workload under an explicit runtime
// configuration as one kernel, memoized by its run key.
func (s *Suite) RunConfig(w workload.Workload, cfg core.Config) stats.Run {
	return s.runConfig(w, cfg, false)
}

// oracleConfig is the offline Belady-style upper bound's config; the
// run's future is its own trace (simulate). The bound idealizes
// orchestration as well as knowledge: placements happen in the
// background (Belady's guarantee is about miss counts, so the bound
// should not pay avoidable placement stalls).
func (s *Suite) oracleConfig() core.Config {
	cfg := s.config(core.PolicyOracle)
	cfg.AsyncEviction = true
	return cfg
}

// RunOracle simulates the offline upper bound (oracleConfig).
func (s *Suite) RunOracle(w workload.Workload) stats.Run {
	return s.RunConfig(w, s.oracleConfig())
}

// OracleRow compares GMT-Reuse against the offline bound it
// approximates (§2.1.3 / Belady [8]).
type OracleRow struct {
	App           string
	ReuseSpeedup  float64 // over BaM
	OracleSpeedup float64 // over BaM
	Attained      float64 // fraction of the oracle's gain Reuse attains
	ReuseReads    int64   // demand SSD reads
	OracleReads   int64
}

// OracleGap quantifies how much of the perfect-knowledge headroom
// GMT-Reuse's practical prediction captures.
func OracleGap(s *Suite) ([]OracleRow, *stats.Table) {
	t := stats.NewTable("Oracle study: GMT-Reuse vs Belady-style offline bound (speedup over BaM)",
		"Application", "GMT-Reuse", "GMT-Oracle", "Gain attained")
	var rows []OracleRow
	for _, w := range s.Apps() {
		bam := s.Run(w, core.PolicyBaM)
		reuse := s.Run(w, core.PolicyReuse)
		oracle := s.RunOracle(w)
		r := OracleRow{
			App:           w.Name(),
			ReuseSpeedup:  reuse.SpeedupOver(bam),
			OracleSpeedup: oracle.SpeedupOver(bam),
			ReuseReads:    reuse.SSDReads,
			OracleReads:   oracle.SSDReads,
		}
		if gain := r.OracleSpeedup - 1; gain > 0.01 {
			r.Attained = (r.ReuseSpeedup - 1) / gain
		} else {
			r.Attained = 1
		}
		rows = append(rows, r)
		t.AddRow(r.App, stats.X(r.ReuseSpeedup), stats.X(r.OracleSpeedup), stats.Pct(r.Attained))
	}
	return rows, t
}

// WarmupRow reports early-execution placement quality for pipelined vs
// end-of-sampling regression publication.
type WarmupRow struct {
	App string
	// EarlyHitRatePipelined / EarlyHitRateUnpipelined: Tier-2 hit rate
	// over the first third of the run's accesses.
	EarlyHitRatePipelined   float64
	EarlyHitRateUnpipelined float64
	// Full-run speedups over BaM.
	SpeedupPipelined   float64
	SpeedupUnpipelined float64
}

// RegressionWarmup tests §2.1.3's claim that shipping sample batches to
// the regression "results in better placement for the early part of the
// execution", against the wait-for-all-samples strawman.
func RegressionWarmup(s *Suite) ([]WarmupRow, *stats.Table) {
	t := stats.NewTable("Regression pipelining: early-phase Tier-2 hit rate (first third) and full-run speedup",
		"Application", "Early hits (pipelined)", "Early hits (end-only)",
		"Speedup (pipelined)", "Speedup (end-only)")
	var rows []WarmupRow
	apps := []string{"Srad", "Backprop", "MultiVectorAdd"}
	for _, name := range apps {
		w := appByName(s, name)
		trace := s.Trace(w)
		interval := len(trace) / 30
		if interval < 1 {
			interval = 1
		}
		earlyHitRate := func(unpipelined bool) (float64, stats.Run) {
			cfg := s.config(core.PolicyReuse)
			cfg.UnpipelinedRegression = unpipelined
			cfg.HistorySample = interval
			u := s.acquireUnit(cfg)
			u.launch(s.GPU, trace)
			m := u.rt.Snapshot()
			m.App = w.Name()
			m.WallTime = u.eng.Now()
			hist := u.rt.History()
			s.releaseUnit(u)
			s.storeResult(w, cfg, m)
			third := len(hist) / 3
			if third < 1 {
				third = 1
			}
			return hist[third-1].Tier2HitRate(), m
		}
		bam := s.Run(w, core.PolicyBaM)
		pipeEarly, pipeRun := earlyHitRate(false)
		endEarly, endRun := earlyHitRate(true)
		r := WarmupRow{
			App:                     name,
			EarlyHitRatePipelined:   pipeEarly,
			EarlyHitRateUnpipelined: endEarly,
			SpeedupPipelined:        pipeRun.SpeedupOver(bam),
			SpeedupUnpipelined:      endRun.SpeedupOver(bam),
		}
		rows = append(rows, r)
		t.AddRow(r.App, stats.Pct(r.EarlyHitRatePipelined), stats.Pct(r.EarlyHitRateUnpipelined),
			stats.X(r.SpeedupPipelined), stats.X(r.SpeedupUnpipelined))
	}
	return rows, t
}

// PredictorRow compares GMT-Reuse's class predictors on one app.
type PredictorRow struct {
	App string
	// Speedup over BaM and prediction accuracy per predictor name.
	Speedup  map[string]float64
	Accuracy map[string]float64
}

// Predictors evaluated by the ablation.
var Predictors = []core.PredictorKind{
	core.PredictorMarkov, core.PredictorLastClass, core.PredictorStatic,
}

// predictorConfig is one predictor-ablation run's config.
func (s *Suite) predictorConfig(pk core.PredictorKind) core.Config {
	cfg := s.config(core.PolicyReuse)
	cfg.Predictor = pk
	return cfg
}

// PredictorAblation tests §2.1.3's claim that "a simple 2-level history
// suffices for making fairly accurate prediction": the Markov chain
// against a 1-level last-class predictor (which cannot track
// alternating patterns like PageRank's, Fig. 4c) and a learning-free
// static placement.
func PredictorAblation(s *Suite) ([]PredictorRow, *stats.Table) {
	t := stats.NewTable("Predictor ablation: GMT-Reuse speedup over BaM (accuracy) per predictor",
		"Application", "Markov (2-level)", "Last-class (1-level)", "Static")
	var rows []PredictorRow
	for _, w := range s.Apps() {
		bam := s.Run(w, core.PolicyBaM)
		r := PredictorRow{App: w.Name(), Speedup: map[string]float64{}, Accuracy: map[string]float64{}}
		cells := []string{r.App}
		for _, pk := range Predictors {
			run := s.RunConfig(w, s.predictorConfig(pk))
			r.Speedup[pk.String()] = run.SpeedupOver(bam)
			r.Accuracy[pk.String()] = run.PredictionAccuracy()
			cells = append(cells, fmt.Sprintf("%s (%s)",
				stats.X(r.Speedup[pk.String()]), stats.Pct(r.Accuracy[pk.String()])))
		}
		rows = append(rows, r)
		t.AddRow(cells...)
	}
	return rows, t
}

// ExtensionRow reports the effect of the future-work extensions on
// GMT-Reuse, per application.
type ExtensionRow struct {
	App string
	// AsyncSpeedup is async-eviction GMT-Reuse over synchronous
	// GMT-Reuse (§5: background orchestration).
	AsyncSpeedup float64
	// PrefetchSpeedup is GMT-Reuse with degree-4 sequential prefetch
	// over plain GMT-Reuse (§2's "When?" discussion).
	PrefetchSpeedup float64
	PrefetchUseful  float64 // fraction of prefetches later demanded
}

// reuseAsyncConfig and reusePrefetchConfig are the extension-study
// runs' configs.
func (s *Suite) reuseAsyncConfig() core.Config {
	cfg := s.config(core.PolicyReuse)
	cfg.AsyncEviction = true
	return cfg
}

func (s *Suite) reusePrefetchConfig() core.Config {
	cfg := s.config(core.PolicyReuse)
	cfg.PrefetchDegree = 4
	return cfg
}

// Extensions evaluates the paper's future-work directions.
func Extensions(s *Suite) ([]ExtensionRow, *stats.Table) {
	t := stats.NewTable("Extensions: §5 async eviction and §2 sequential prefetch (speedup over plain GMT-Reuse)",
		"Application", "Async eviction", "Prefetch(4)", "Prefetch useful")
	var rows []ExtensionRow
	for _, w := range s.Apps() {
		base := s.Run(w, core.PolicyReuse)
		ar := s.RunConfig(w, s.reuseAsyncConfig())
		pr := s.RunConfig(w, s.reusePrefetchConfig())
		r := ExtensionRow{
			App:             w.Name(),
			AsyncSpeedup:    ar.SpeedupOver(base),
			PrefetchSpeedup: pr.SpeedupOver(base),
		}
		if pr.Prefetches > 0 {
			r.PrefetchUseful = float64(pr.PrefetchHits) / float64(pr.Prefetches)
		}
		rows = append(rows, r)
		t.AddRow(r.App, stats.X(r.AsyncSpeedup), stats.X(r.PrefetchSpeedup), stats.Pct(r.PrefetchUseful))
	}
	return rows, t
}
