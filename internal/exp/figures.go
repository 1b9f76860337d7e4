package exp

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/workload"
)

// Table1Row is one row of the modeled system specification.
type Table1Row struct {
	Component string
	Paper     string
	Model     string
}

// Table1 renders the paper's system specification against the
// simulation's calibrated equivalents.
func Table1(s *Suite) ([]Table1Row, *stats.Table) {
	cfg := s.config(core.PolicyReuse)
	rows := []Table1Row{
		{"System", "TYAN B7119F83V8E4HR-2T-N", "discrete-event simulation (internal/sim)"},
		{"CPU", "Intel Xeon Gold 6226 64-CPU", "HMM fault-handler pool (internal/baseline)"},
		{"GPU", "NVIDIA A100-40GB PCIe", fmt.Sprintf("%d warps, %d Tier-1 pages (%.1f GB-equivalent at 1/256 scale)",
			s.GPU.Warps, cfg.Tier1Pages, float64(cfg.Tier1Pages)*64*1024*256/1e9)},
		{"DRAM", "256 GB DDR4", fmt.Sprintf("%d Tier-2 pages (%.1f GB-equivalent)",
			cfg.Tier2Pages, float64(cfg.Tier2Pages)*64*1024*256/1e9)},
		{"SSD", "Samsung 970 EVO Plus (Gen3 x4)", fmt.Sprintf("%d queue pairs x depth %d, %d channels, %.1f GB/s media, %dµs read latency",
			cfg.SSD.Queues, cfg.SSD.QueueDepth, cfg.SSD.Channels,
			float64(cfg.SSD.MediaReadBps)/1e9, cfg.SSD.ReadLatency/1000)},
		{"Interconnect", "PCIe Gen3 x16", fmt.Sprintf("%d lanes, %.1f GB/s effective per direction",
			cfg.HostLanes, float64(cfg.HostLanes)*0.8)},
		{"Kernel/driver", "Linux 5.15.0 / NVIDIA 515.43.04", "n/a (simulated orchestration)"},
	}
	t := stats.NewTable("Table 1: System specification (paper platform vs simulation model)",
		"Component", "Paper", "Model")
	for _, r := range rows {
		t.AddRow(r.Component, r.Paper, r.Model)
	}
	return rows, t
}

// Table2Row is one application's characteristics (paper Table 2).
type Table2Row struct {
	App          string
	ReusePct     float64
	TotalIOBytes int64
	Accesses     int64
}

// Table2 reproduces the application characteristics table.
func Table2(s *Suite) ([]Table2Row, *stats.Table) {
	t := stats.NewTable("Table 2: Applications and their characteristics",
		"Application", "Reuse % of a Page", "Total I/O (sim)", "Accesses")
	var rows []Table2Row
	for _, w := range s.Apps() {
		a := s.characteristics(w)
		r := Table2Row{
			App:          w.Name(),
			ReusePct:     a.ReusePct(),
			TotalIOBytes: a.TotalIOBytes,
			Accesses:     a.Accesses,
		}
		rows = append(rows, r)
		t.AddRow(r.App, stats.Pct(r.ReusePct),
			fmt.Sprintf("%.2f GB", float64(r.TotalIOBytes)/1e9),
			fmt.Sprintf("%d", r.Accesses))
	}
	return rows, t
}

// Figure7Row is one application's RRD distribution (paper Figure 7).
type Figure7Row struct {
	App                                string
	ReusePct                           float64
	PairShort, PairMedium, PairLong    float64
	EvictShort, EvictMedium, EvictLong float64
}

// Figure7 reproduces the per-application Remaining-Reuse-Distance
// distributions with the Tier-1 and Tier-1+Tier-2 demarcations.
func Figure7(s *Suite) ([]Figure7Row, *stats.Table) {
	t := stats.NewTable("Figure 7: Remaining Reuse Distance distribution "+
		"(fractions below Tier-1 / below Tier-1+Tier-2 / beyond)",
		"Application", "Reuse %", "Pairs T1/T2/T3", "Evictions T1/T2/T3")
	var rows []Figure7Row
	for _, w := range s.Apps() {
		a := s.characteristics(w)
		r := Figure7Row{App: w.Name(), ReusePct: a.ReusePct()}
		r.PairShort, r.PairMedium, r.PairLong = a.PairFractions()
		r.EvictShort, r.EvictMedium, r.EvictLong = a.EvictFractions()
		rows = append(rows, r)
		t.AddRow(r.App, stats.Pct(r.ReusePct),
			fmt.Sprintf("%.2f/%.2f/%.2f", r.PairShort, r.PairMedium, r.PairLong),
			fmt.Sprintf("%.2f/%.2f/%.2f", r.EvictShort, r.EvictMedium, r.EvictLong))
	}
	return rows, t
}

// Figure8Row is one application's speedups and relative I/O (Figure 8).
type Figure8Row struct {
	App                 string
	Speedup             map[string]float64 // policy -> speedup over BaM
	IORelative          map[string]float64 // policy -> SSD I/O vs BaM
	BaMWallMicroseconds int64
}

// Figure8 reproduces speedup over BaM (8a) and relative SSD I/O (8b) for
// the three GMT policies.
func Figure8(s *Suite) ([]Figure8Row, *stats.Table) {
	t := stats.NewTable("Figure 8: Speedup over BaM (a) and SSD I/O relative to BaM (b); Tier-2=4x Tier-1, OSF=2",
		"Application", "TierOrder", "Random", "Reuse", "I/O TO", "I/O Rnd", "I/O Reuse")
	var rows []Figure8Row
	for _, w := range s.Apps() {
		bam := s.Run(w, core.PolicyBaM)
		r := Figure8Row{
			App:                 w.Name(),
			Speedup:             map[string]float64{},
			IORelative:          map[string]float64{},
			BaMWallMicroseconds: bam.WallTime / 1000,
		}
		for _, p := range Policies {
			run := s.Run(w, p)
			r.Speedup[p.String()] = run.SpeedupOver(bam)
			r.IORelative[p.String()] = run.IORelativeTo(bam)
		}
		rows = append(rows, r)
		t.AddRow(r.App,
			stats.X(r.Speedup["GMT-TierOrder"]), stats.X(r.Speedup["GMT-Random"]),
			stats.X(r.Speedup["GMT-Reuse"]),
			stats.Pct(r.IORelative["GMT-TierOrder"]), stats.Pct(r.IORelative["GMT-Random"]),
			stats.Pct(r.IORelative["GMT-Reuse"]))
	}
	avg := func(p string) float64 {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r.Speedup[p])
		}
		return mean(xs)
	}
	t.AddRow("AVERAGE", stats.X(avg("GMT-TierOrder")), stats.X(avg("GMT-Random")),
		stats.X(avg("GMT-Reuse")), "", "", "")
	return rows, t
}

// Figure9Row is GMT-Reuse's prediction accuracy for one application.
type Figure9Row struct {
	App         string
	Accuracy    float64
	Predictions int64
}

// Figure9 reproduces the predictor accuracy chart.
func Figure9(s *Suite) ([]Figure9Row, *stats.Table) {
	t := stats.NewTable("Figure 9: GMT-Reuse prediction accuracy",
		"Application", "Accuracy", "Predictions scored")
	var rows []Figure9Row
	for _, w := range s.Apps() {
		run := s.Run(w, core.PolicyReuse)
		r := Figure9Row{App: w.Name(), Accuracy: run.PredictionAccuracy(), Predictions: run.Predictions}
		rows = append(rows, r)
		t.AddRow(r.App, stats.Pct(r.Accuracy), fmt.Sprintf("%d", r.Predictions))
	}
	return rows, t
}

// Figure10Row captures Tier-2 overheads for one application.
type Figure10Row struct {
	App string
	// WastefulLookups: wasted Tier-2 probes as a fraction of Tier-1
	// misses, per policy (Figure 10a).
	WastefulLookups map[string]float64
	// PlacedPct / FetchedPct: Tier-1 evictions placed into Tier-2 and
	// fetches served from Tier-2, as a fraction of BaM's total SSD I/O
	// (Figure 10b: the bars' top and bottom parts).
	PlacedPct  map[string]float64
	FetchedPct map[string]float64
}

// Figure10 reproduces the Tier-2 overhead study.
func Figure10(s *Suite) ([]Figure10Row, *stats.Table) {
	t := stats.NewTable("Figure 10: Tier-2 overheads (wasteful lookups; placements vs fetches as % of BaM I/O)",
		"Application", "Waste TO", "Waste Rnd", "Waste Reuse",
		"Placed/Fetched TO", "Placed/Fetched Rnd", "Placed/Fetched Reuse")
	var rows []Figure10Row
	for _, w := range s.Apps() {
		bam := s.Run(w, core.PolicyBaM)
		bamIO := float64(bam.SSDReads + bam.SSDWrites)
		r := Figure10Row{
			App:             w.Name(),
			WastefulLookups: map[string]float64{},
			PlacedPct:       map[string]float64{},
			FetchedPct:      map[string]float64{},
		}
		cells := []string{r.App}
		for _, p := range Policies {
			run := s.Run(w, p)
			r.WastefulLookups[p.String()] = run.WastefulLookupRate()
			if bamIO > 0 {
				r.PlacedPct[p.String()] = float64(run.EvictionsToTier2) / bamIO
				r.FetchedPct[p.String()] = float64(run.Tier2Hits) / bamIO
			}
			cells = append(cells, stats.Pct(r.WastefulLookups[p.String()]))
		}
		for _, p := range Policies {
			cells = append(cells, fmt.Sprintf("%s/%s",
				stats.Pct(r.PlacedPct[p.String()]), stats.Pct(r.FetchedPct[p.String()])))
		}
		rows = append(rows, r)
		t.AddRow(cells...)
	}
	return rows, t
}

// Figure14Row compares HMM and GMT-Reuse against BaM.
type Figure14Row struct {
	App           string
	HMMSpeedup    float64
	ReuseSpeedup  float64
	OptimisticHMM float64 // §3.6: HMM granted GMT-Reuse's hit rate
	ReuseVsOptHMM float64
}

// Figure14 reproduces the HMM comparison, including the §3.6
// optimistic-HMM study.
func Figure14(s *Suite) ([]Figure14Row, *stats.Table) {
	t := stats.NewTable("Figure 14: Speedup of HMM and GMT-Reuse over BaM (+ §3.6 optimistic HMM)",
		"Application", "HMM", "GMT-Reuse", "HMM(opt)", "Reuse vs HMM(opt)")
	var rows []Figure14Row
	for _, w := range s.Apps() {
		bam := s.Run(w, core.PolicyBaM)
		reuseRun := s.Run(w, core.PolicyReuse)
		hmm := s.RunHMM(w, -1)
		opt := s.RunHMM(w, reuseRun.Tier2HitRate())
		r := Figure14Row{
			App:           w.Name(),
			HMMSpeedup:    hmm.SpeedupOver(bam),
			ReuseSpeedup:  reuseRun.SpeedupOver(bam),
			OptimisticHMM: opt.SpeedupOver(bam),
			ReuseVsOptHMM: reuseRun.SpeedupOver(opt),
		}
		rows = append(rows, r)
		t.AddRow(r.App, stats.X(r.HMMSpeedup), stats.X(r.ReuseSpeedup),
			stats.X(r.OptimisticHMM), stats.X(r.ReuseVsOptHMM))
	}
	return rows, t
}

// SensitivityRow is one application's GMT speedups at an alternate
// configuration (Figures 11, 12, 13).
type SensitivityRow struct {
	App     string
	Speedup map[string]float64
}

// figure11Suites derives Figure 11's two alternate-scale sub-suites
// from the parent: doubled oversubscription for the non-graph
// applications (the paper doubles those datasets), halved tiers for the
// graph applications (same datasets, half the machine — so the graph
// sub-suite adopts the parent's workloads instead of regenerating
// them). Both phase their runs at the warm-up prefix.
func (s *Suite) figure11Suites() (ng, g *Suite) {
	base := s.Scale
	ng = s.derived("fig11/nongraph", func() *Suite {
		sc := base
		sc.Oversubscription = 2 * base.Oversubscription
		sub := NewRegularSuite(sc)
		sub.phased = true
		return sub
	})
	g = s.derived("fig11/graph", func() *Suite {
		sub := NewSuite(workload.Scale{
			Tier1Pages:       base.Tier1Pages / 2,
			Tier2Pages:       base.Tier2Pages / 2,
			Oversubscription: base.Oversubscription,
		})
		sub.phased = true
		sub.adoptData(s)
		return sub
	})
	return ng, g
}

// Figure11 doubles the oversubscription factor to 4 (paper: doubled
// datasets for non-graph applications, halved tiers for graph
// applications) and reports speedups over BaM.
func Figure11(s *Suite) ([]SensitivityRow, *stats.Table) {
	ngSuite, gSuite := s.figure11Suites()

	t := stats.NewTable("Figure 11: Speedup over BaM at oversubscription factor 4",
		"Application", "TierOrder", "Random", "Reuse")
	var rows []SensitivityRow
	addRow := func(s *Suite, w workload.Workload) {
		r := SensitivityRow{App: w.Name(), Speedup: map[string]float64{}}
		for _, p := range Policies {
			r.Speedup[p.String()] = s.Speedup(w, p)
		}
		rows = append(rows, r)
		t.AddRow(r.App, stats.X(r.Speedup["GMT-TierOrder"]),
			stats.X(r.Speedup["GMT-Random"]), stats.X(r.Speedup["GMT-Reuse"]))
	}
	// Keep Table 2 ordering: graph apps interleaved.
	for _, name := range workload.Names {
		if isGraphApp(name) {
			addRow(gSuite, appByName(gSuite, name))
		} else {
			addRow(ngSuite, appByName(ngSuite, name))
		}
	}
	return rows, t
}

func isGraphApp(name string) bool {
	return name == "BFS" || name == "PageRank" || name == "SSSP"
}

func appByName(s *Suite, name string) workload.Workload {
	for _, w := range s.Apps() {
		if w.Name() == name {
			return w
		}
	}
	if name == workload.KVServeName {
		return s.KVApp()
	}
	panic("exp: unknown app " + name)
}

// figure12Ratios are the Tier-2:Tier-1 ratios Figure 12 sweeps.
var figure12Ratios = []int{2, 4, 8}

// figure12Suites derives one sub-suite per Tier-2:Tier-1 ratio. The
// ratio sweep varies only host-memory capacity, so every sub-suite
// adopts the parent's datasets: traces are shared across ratios, and
// each app's BaM run, which never reads Tier-2, is simulated once for
// all three (core.Canonical).
func (s *Suite) figure12Suites() map[int]*Suite {
	base := s.Scale
	suites := make(map[int]*Suite)
	for _, ratio := range figure12Ratios {
		ratio := ratio
		suites[ratio] = s.derived(fmt.Sprintf("fig12/ratio%d", ratio), func() *Suite {
			sc := base
			sc.Tier2Pages = ratio * base.Tier1Pages
			sub := NewSuite(sc)
			sub.phased = true
			sub.adoptData(s)
			return sub
		})
	}
	return suites
}

// Figure12 varies the Tier-2:Tier-1 ratio (2, 4, 8) and reports
// GMT-Reuse's speedup over BaM.
func Figure12(s *Suite) (map[int][]SensitivityRow, *stats.Table) {
	ratios := figure12Ratios
	t := stats.NewTable("Figure 12: GMT-Reuse speedup over BaM for Tier-2:Tier-1 ratios",
		"Application", "Ratio 2", "Ratio 4", "Ratio 8")
	byRatio := make(map[int][]SensitivityRow)
	suites := s.figure12Suites()
	for _, name := range workload.Names {
		cells := []string{name}
		for _, ratio := range ratios {
			sub := suites[ratio]
			sp := sub.Speedup(appByName(sub, name), core.PolicyReuse)
			byRatio[ratio] = append(byRatio[ratio], SensitivityRow{
				App: name, Speedup: map[string]float64{"GMT-Reuse": sp},
			})
			cells = append(cells, stats.X(sp))
		}
		t.AddRow(cells...)
	}
	return byRatio, t
}

// figure13Suite derives Figure 13's doubled-Tier-1 sub-suite.
func (s *Suite) figure13Suite() *Suite {
	base := s.Scale
	return s.derived("fig13", func() *Suite {
		sub := NewRegularSuite(workload.Scale{
			Tier1Pages:       2 * base.Tier1Pages,
			Tier2Pages:       2 * base.Tier2Pages,
			Oversubscription: base.Oversubscription,
		})
		sub.phased = true
		return sub
	})
}

// Figure13 doubles Tier-1 (and the datasets with it, OSF staying 2) and
// reports speedups for the non-graph applications.
func Figure13(s *Suite) ([]SensitivityRow, *stats.Table) {
	sub := s.figure13Suite()
	t := stats.NewTable("Figure 13: Speedup over BaM with doubled Tier-1 (non-graph applications)",
		"Application", "TierOrder", "Random", "Reuse")
	var rows []SensitivityRow
	for _, w := range sub.Apps() {
		r := SensitivityRow{App: w.Name(), Speedup: map[string]float64{}}
		for _, p := range Policies {
			r.Speedup[p.String()] = sub.Speedup(w, p)
		}
		rows = append(rows, r)
		t.AddRow(r.App, stats.X(r.Speedup["GMT-TierOrder"]),
			stats.X(r.Speedup["GMT-Random"]), stats.X(r.Speedup["GMT-Reuse"]))
	}
	return rows, t
}
