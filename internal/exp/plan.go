package exp

import (
	"fmt"
	"strconv"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/workload"
)

// ExperimentNames lists every experiment gmtbench knows, in rendering
// order. The planner understands the same names.
var ExperimentNames = []string{
	"table1", "table2", "fig4", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "oracle", "ext", "ssd",
	"predictors", "warmup", "util", "kvserve",
}

// Job is one unit of prewarm work: a single trace generation or
// simulation, self-contained (it builds its own engine and RNG from the
// suite configuration) and safe to run concurrently with any other job.
// Running a job only fills the suite memo; rendering afterwards reads
// the same memo, so output is identical whether or not the job ran.
type Job struct {
	// Key is unique across the plan and names the job in reports:
	// "<suite label>|<class>|<detail>", the class one of trace, run,
	// cfg, oracle and hmm.
	Key string
	Run func()
}

// Phase groups jobs with no dependencies among them: all jobs of a
// phase may run concurrently, and a phase only starts after every
// earlier phase finished.
type Phase struct {
	Name string
	Jobs []Job
	// More, if set, is called when the phase starts (i.e. after all
	// earlier phases completed) and returns additional jobs whose
	// parameters depend on earlier results — e.g. Figure 14's
	// optimistic-HMM runs need GMT-Reuse's measured hit rate.
	More func() []Job
}

// Plan walks the requested experiments and collects the jobs they will
// need, grouped into phases: trace generation first (the Kronecker/CSR
// graph build rides along via the lazily built GraphSet), then all
// statically known simulations, then dependent simulations. A
// simulation is planned once per run key, however many experiments or
// sub-suites read it, and only if a figure renders it. The plan is an
// optimization only — any job the planner misses is computed lazily
// (and sequentially) when the experiment renders, so results never
// depend on planner completeness.
func Plan(s *Suite, experiments []string) []Phase {
	pl := &planner{seen: map[runKey]bool{}, traced: map[string]bool{}}
	for _, e := range experiments {
		pl.addExperiment(s, e)
	}
	phases := []Phase{{Name: "traces", Jobs: pl.traces}, {Name: "simulate", Jobs: pl.sims}}
	if len(pl.more) > 0 {
		phases = append(phases, Phase{Name: "dependent", More: func() []Job {
			dep := &planner{seen: pl.seen, traced: pl.traced}
			for _, f := range pl.more {
				f(dep)
			}
			return dep.sims
		}})
	}
	return phases
}

type planner struct {
	seen   map[runKey]bool // simulations planned, by run key
	traced map[string]bool // trace jobs planned, by job key
	traces []Job
	sims   []Job
	// more plans the dependent phase's simulations into a planner
	// that shares seen and traced.
	more []func(*planner)
}

// allPolicies is BaM plus the three GMT policies, the sweep most
// figures run.
func allPolicies() []core.PolicyKind {
	return append([]core.PolicyKind{core.PolicyBaM}, Policies...)
}

func appNames(s *Suite) []string {
	names := make([]string, len(s.apps))
	for i, w := range s.apps {
		names[i] = w.Name()
	}
	return names
}

func (pl *planner) addExperiment(s *Suite, name string) {
	switch name {
	case "table1", "fig6":
		// Configuration-only: no traces, no simulations.
	case "table2", "fig7":
		pl.addTraces(s, appNames(s))
	case "fig4":
		pl.addTraces(s, []string{"MultiVectorAdd", "PageRank"})
	case "fig8", "fig10", "util":
		pl.addPolicySweep(s, appNames(s), allPolicies())
	case "fig9":
		pl.addPolicySweep(s, appNames(s), []core.PolicyKind{core.PolicyReuse})
	case "fig11":
		// Figure11 reads only the graph apps from the graph sub-suite.
		ng, g := s.figure11Suites()
		pl.addPolicySweep(ng, appNames(ng), allPolicies())
		var graphs []string
		for _, n := range appNames(g) {
			if isGraphApp(n) {
				graphs = append(graphs, n)
			}
		}
		pl.addPolicySweep(g, graphs, allPolicies())
	case "fig12":
		suites := s.figure12Suites()
		for _, ratio := range figure12Ratios {
			sub := suites[ratio]
			pl.addPolicySweep(sub, appNames(sub),
				[]core.PolicyKind{core.PolicyBaM, core.PolicyReuse})
		}
	case "fig13":
		sub := s.figure13Suite()
		pl.addPolicySweep(sub, appNames(sub), allPolicies())
	case "fig14":
		pl.addPolicySweep(s, appNames(s),
			[]core.PolicyKind{core.PolicyBaM, core.PolicyReuse})
		for _, n := range appNames(s) {
			pl.addHMM(s, n, -1)
		}
		pl.more = append(pl.more, func(dep *planner) {
			// By the dependent phase, the Reuse runs are memoized, so
			// reading the hit rates costs nothing.
			for _, w := range s.Apps() {
				dep.addHMM(s, w.Name(), s.Run(w, core.PolicyReuse).Tier2HitRate())
			}
		})
	case "oracle":
		pl.addPolicySweep(s, appNames(s),
			[]core.PolicyKind{core.PolicyBaM, core.PolicyReuse})
		for _, n := range appNames(s) {
			pl.addRun(s, n, "oracle", n, s.oracleConfig(), false)
		}
	case "ext":
		pl.addPolicySweep(s, appNames(s), []core.PolicyKind{core.PolicyReuse})
		for _, n := range appNames(s) {
			pl.addConfig(s, n, s.reuseAsyncConfig(), false)
			pl.addConfig(s, n, s.reusePrefetchConfig(), false)
		}
	case "ssd":
		pl.addTraces(s, SensitivityApps)
		for _, app := range SensitivityApps {
			for _, g := range SSDGens {
				pl.addConfig(s, app, s.ssdGenConfig(g, core.PolicyBaM), false)
				pl.addConfig(s, app, s.ssdGenConfig(g, core.PolicyReuse), false)
			}
			for _, c := range SSDCounts {
				pl.addConfig(s, app, s.ssdCountConfig(c, core.PolicyBaM), false)
				pl.addConfig(s, app, s.ssdCountConfig(c, core.PolicyReuse), false)
			}
		}
	case "predictors":
		pl.addPolicySweep(s, appNames(s), []core.PolicyKind{core.PolicyBaM})
		for _, n := range appNames(s) {
			for _, pk := range Predictors {
				pl.addConfig(s, n, s.predictorConfig(pk), false)
			}
		}
	case "kvserve":
		for _, p := range KVPolicies {
			pl.addConfig(s, workload.KVServeName, s.kvConfig(p), true)
		}
	case "warmup":
		// The warmup study's pipelined/unpipelined runs need the
		// runtime's history, which the memo doesn't carry, so only
		// the BaM baselines (and traces) can be prewarmed.
		pl.addPolicySweep(s, []string{"Srad", "Backprop", "MultiVectorAdd"},
			[]core.PolicyKind{core.PolicyBaM})
	}
}

// addTraces queues trace-generation jobs, one graph application first:
// the graph workloads share one lazily built GraphSet, so the first
// graph trace triggers the expensive Kronecker/CSR build while the
// regular traces generate on other workers.
func (pl *planner) addTraces(s *Suite, names []string) {
	var graphs, regular []string
	for _, n := range names {
		if isGraphApp(n) {
			graphs = append(graphs, n)
		} else {
			regular = append(regular, n)
		}
	}
	if len(graphs) > 0 {
		pl.addTrace(s, graphs[0])
	}
	for _, n := range regular {
		pl.addTrace(s, n)
	}
	for _, n := range graphs {
		pl.addTrace(s, n)
	}
}

// addTrace queues name's trace generation on the suite that owns the
// dataset, so sub-suites that adopted the root's datasets plan nothing
// of their own.
func (pl *planner) addTrace(s *Suite, name string) {
	d := s.dataSuite()
	key := d.label + "|trace|" + name
	if pl.traced[key] {
		return
	}
	pl.traced[key] = true
	w := appByName(d, name)
	pl.traces = append(pl.traces, Job{Key: key, Run: func() { d.Trace(w) }})
}

func (pl *planner) addPolicySweep(s *Suite, names []string, policies []core.PolicyKind) {
	pl.addTraces(s, names)
	for _, n := range names {
		for _, p := range policies {
			pl.addRun(s, n, "run", n+"/"+p.String(), s.config(p), s.phased)
		}
	}
}

// addConfig queues one explicit-config run of app; split is runConfig's.
func (pl *planner) addConfig(s *Suite, app string, cfg core.Config, split bool) {
	pl.addTrace(s, app)
	pl.addRun(s, app, "cfg", fmt.Sprintf("%s/%d", app, len(pl.sims)), cfg, split)
}

// addRun queues runConfig(app, cfg, split).
func (pl *planner) addRun(s *Suite, app, class, detail string, cfg core.Config, split bool) {
	w := appByName(s, app)
	pl.add(s.key(w, cfg, split, nil), s.label+"|"+class+"|"+detail, func() { s.runConfig(w, cfg, split) })
}

// addHMM queues RunHMM(app, rate).
func (pl *planner) addHMM(s *Suite, app string, rate float64) {
	pl.addTrace(s, app)
	w := appByName(s, app)
	cfg := s.hmmConfig(rate)
	pl.add(s.key(w, core.Config{}, false, &cfg),
		s.label+"|hmm|"+app+"/"+strconv.FormatFloat(rate, 'g', -1, 64), func() { s.RunHMM(w, rate) })
}

// add queues the simulation run under job key key unless a job with
// its run key k is already planned.
func (pl *planner) add(k runKey, key string, run func()) {
	if pl.seen[k] {
		return
	}
	pl.seen[k] = true
	pl.sims = append(pl.sims, Job{Key: key, Run: run})
}
