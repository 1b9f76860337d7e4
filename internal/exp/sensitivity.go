package exp

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
)

// SSDGen is one point in the storage-technology sweep.
type SSDGen struct {
	Name    string
	BWMult  float64 // media bandwidth multiplier over the Gen3 x4 base
	LatMult float64 // media latency multiplier
	Lanes   int
}

// SSDGens spans the paper's drive (Gen3 x4) through successively faster
// storage. As the SSD approaches host-memory performance, the host
// tier's latency/bandwidth advantage — and with it GMT's headroom over
// BaM — should shrink. This is the forward-looking question the
// paper's "Big Data Era" framing raises.
var SSDGens = []SSDGen{
	{Name: "Gen3x4 (paper)", BWMult: 1, LatMult: 1, Lanes: 4},
	{Name: "Gen4x4", BWMult: 2, LatMult: 0.7, Lanes: 8},
	{Name: "Gen5x4", BWMult: 4, LatMult: 0.5, Lanes: 16},
	{Name: "near-memory", BWMult: 8, LatMult: 0.25, Lanes: 16},
}

// SensitivityApps are the representatives used by the sweep: a
// Tier-2-biased stencil, a pure Tier-3 cyclic scan, and a graph
// workload.
var SensitivityApps = []string{"Srad", "Hotspot", "BFS"}

// SSDRow is GMT-Reuse's speedup over BaM for one app at one generation.
type SSDRow struct {
	App     string
	Gen     string
	Speedup float64
}

// ssdGenConfig is one storage-generation run's config.
func (s *Suite) ssdGenConfig(g SSDGen, p core.PolicyKind) core.Config {
	cfg := s.config(p)
	cfg.SSD.MediaReadBps = int64(float64(cfg.SSD.MediaReadBps) * g.BWMult)
	cfg.SSD.MediaWriteBps = int64(float64(cfg.SSD.MediaWriteBps) * g.BWMult)
	cfg.SSD.ReadLatency = sim.Time(float64(cfg.SSD.ReadLatency) * g.LatMult)
	cfg.SSD.WriteLatency = sim.Time(float64(cfg.SSD.WriteLatency) * g.LatMult)
	cfg.SSD.Lanes = g.Lanes
	return cfg
}

// SSDSensitivity sweeps storage generations.
func SSDSensitivity(s *Suite) ([]SSDRow, *stats.Table) {
	t := stats.NewTable("SSD sensitivity: GMT-Reuse speedup over BaM as storage approaches memory",
		append([]string{"Application"}, genNames()...)...)
	var rows []SSDRow
	for _, app := range SensitivityApps {
		w := appByName(s, app)
		cells := []string{app}
		for _, g := range SSDGens {
			bam := s.RunConfig(w, s.ssdGenConfig(g, core.PolicyBaM))
			reuse := s.RunConfig(w, s.ssdGenConfig(g, core.PolicyReuse))
			sp := reuse.SpeedupOver(bam)
			rows = append(rows, SSDRow{App: app, Gen: g.Name, Speedup: sp})
			cells = append(cells, stats.X(sp))
		}
		t.AddRow(cells...)
	}
	return rows, t
}

func genNames() []string {
	out := make([]string, len(SSDGens))
	for i, g := range SSDGens {
		out[i] = g.Name
	}
	return out
}

// SSDCountRow is GMT-Reuse's speedup over BaM when both stripe across
// the same number of drives.
type SSDCountRow struct {
	App     string
	Drives  int
	Speedup float64
}

// SSDCounts spans a single drive (the paper's testbed) through a
// BaM-style array.
var SSDCounts = []int{1, 2, 4}

// ssdCountConfig is one drive-array run's config.
func (s *Suite) ssdCountConfig(n int, p core.PolicyKind) core.Config {
	cfg := s.config(p)
	cfg.SSDCount = n
	return cfg
}

// SSDCountSweep measures how striped storage bandwidth (BaM's scaling
// configuration) erodes the host tier's advantage.
func SSDCountSweep(s *Suite) ([]SSDCountRow, *stats.Table) {
	t := stats.NewTable("SSD array sweep: GMT-Reuse speedup over BaM with both striped across N drives",
		"Application", "1 drive", "2 drives", "4 drives")
	var rows []SSDCountRow
	for _, app := range SensitivityApps {
		w := appByName(s, app)
		cells := []string{app}
		for _, n := range SSDCounts {
			bam := s.RunConfig(w, s.ssdCountConfig(n, core.PolicyBaM))
			reuse := s.RunConfig(w, s.ssdCountConfig(n, core.PolicyReuse))
			sp := reuse.SpeedupOver(bam)
			rows = append(rows, SSDCountRow{App: app, Drives: n, Speedup: sp})
			cells = append(cells, stats.X(sp))
		}
		t.AddRow(cells...)
	}
	return rows, t
}

// UtilizationRow reports GPU warp utilization (compute vs memory-stall
// time) per policy — the resource the paper's §3.4 worries about when
// GPU threads do the orchestration work.
type UtilizationRow struct {
	App         string
	Utilization map[string]float64 // policy -> busy fraction
}

// Utilization compares how much of the GPU's warp time each system
// spends computing rather than stalled on the memory hierarchy.
func Utilization(s *Suite) ([]UtilizationRow, *stats.Table) {
	policies := append([]core.PolicyKind{core.PolicyBaM}, Policies...)
	headers := []string{"Application"}
	for _, p := range policies {
		headers = append(headers, p.String())
	}
	t := stats.NewTable("GPU warp utilization (compute / (compute+stall))", headers...)
	var rows []UtilizationRow
	for _, w := range s.Apps() {
		r := UtilizationRow{App: w.Name(), Utilization: map[string]float64{}}
		cells := []string{r.App}
		for _, p := range policies {
			u := s.Run(w, p).GPUUtilization()
			r.Utilization[p.String()] = u
			// Out-of-core kernels are deeply memory-bound: busy
			// fractions live well below 1%, so print basis points.
			cells = append(cells, fmt.Sprintf("%.3f%%", 100*u))
		}
		rows = append(rows, r)
		t.AddRow(cells...)
	}
	return rows, t
}

// SSDScalingChart renders the sweep as bar charts, one per application.
func SSDScalingChart(rows []SSDRow) string {
	byApp := map[string]*stats.BarChart{}
	var order []string
	for _, r := range rows {
		c, ok := byApp[r.App]
		if !ok {
			c = stats.NewBarChart(fmt.Sprintf("%s: GMT-Reuse speedup over BaM by storage generation", r.App), "x")
			byApp[r.App] = c
			order = append(order, r.App)
		}
		c.Add(r.Gen, r.Speedup)
	}
	out := ""
	for _, app := range order {
		out += byApp[app].Render(40) + "\n"
	}
	return out
}
