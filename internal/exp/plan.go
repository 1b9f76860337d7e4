package exp

import (
	"fmt"

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
	Key string // unique across the plan; used for dedup and reporting
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

// Plan walks the requested experiments and collects the deduplicated
// set of jobs they will need, grouped into phases: trace generation
// first (the Kronecker/CSR graph build rides along via the lazy
// GraphSet), then all statically known simulations, then dependent
// simulations. The plan is an optimization only — any job the planner
// misses is computed lazily (and sequentially) when the experiment
// renders, so results never depend on planner completeness.
func Plan(s *Suite, experiments []string) []Phase {
	pl := &planner{seen: map[string]bool{}}
	for _, e := range experiments {
		pl.addExperiment(s, e)
	}
	phases := []Phase{{Name: "traces", Jobs: pl.traces}, {Name: "simulate", Jobs: pl.sims}}
	if len(pl.more) > 0 {
		more := pl.more
		phases = append(phases, Phase{Name: "dependent", More: func() []Job {
			seen := map[string]bool{}
			var jobs []Job
			for _, f := range more {
				for _, j := range f() {
					if seen[j.Key] {
						continue
					}
					seen[j.Key] = true
					jobs = append(jobs, j)
				}
			}
			return jobs
		}})
	}
	return phases
}

type planner struct {
	seen   map[string]bool
	traces []Job
	sims   []Job
	more   []func() []Job
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
		ng, g := s.figure11Suites()
		pl.addPolicySweep(ng, appNames(ng), allPolicies())
		pl.addPolicySweep(g, appNames(g), allPolicies())
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
		pl.more = append(pl.more, func() []Job {
			// By the dependent phase, the Reuse runs are memoized, so
			// reading the hit rates costs nothing.
			var jobs []Job
			for _, w := range s.Apps() {
				w := w
				rate := s.Run(w, core.PolicyReuse).Tier2HitRate()
				jobs = append(jobs, hmmJob(s, w, rate))
			}
			return jobs
		})
	case "oracle":
		pl.addPolicySweep(s, appNames(s),
			[]core.PolicyKind{core.PolicyBaM, core.PolicyReuse})
		for _, n := range appNames(s) {
			n := n
			key := s.label + "|oracle|" + n
			if pl.seen[key] {
				continue
			}
			pl.seen[key] = true
			w := appByName(s, n)
			pl.sims = append(pl.sims, Job{Key: key, Run: func() { s.RunOracle(w) }})
		}
	case "ext":
		pl.addPolicySweep(s, appNames(s), []core.PolicyKind{core.PolicyReuse})
		for _, n := range appNames(s) {
			asyncKey, asyncCfg := s.reuseAsyncConfig()
			pl.addConfig(s, n, asyncKey, asyncCfg, false)
			pfKey, pfCfg := s.reusePrefetchConfig()
			pl.addConfig(s, n, pfKey, pfCfg, false)
		}
	case "ssd":
		pl.addTraces(s, SensitivityApps)
		for _, app := range SensitivityApps {
			for _, g := range SSDGens {
				for _, p := range []core.PolicyKind{core.PolicyBaM, core.PolicyReuse} {
					key, cfg := s.ssdGenConfig(g, p)
					pl.addConfig(s, app, key, cfg, false)
				}
			}
			for _, c := range SSDCounts {
				for _, p := range []core.PolicyKind{core.PolicyBaM, core.PolicyReuse} {
					key, cfg := s.ssdCountConfig(c, p)
					pl.addConfig(s, app, key, cfg, false)
				}
			}
		}
	case "predictors":
		pl.addPolicySweep(s, appNames(s), []core.PolicyKind{core.PolicyBaM})
		for _, n := range appNames(s) {
			for _, pk := range Predictors {
				key, cfg := s.predictorConfig(pk)
				pl.addConfig(s, n, key, cfg, false)
			}
		}
	case "kvserve":
		for _, p := range KVPolicies {
			key, cfg := s.kvConfig(p)
			pl.addConfig(s, workload.KVServeName, key, cfg, true)
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

func (pl *planner) addTrace(s *Suite, name string) {
	key := s.label + "|trace|" + name
	if pl.seen[key] {
		return
	}
	pl.seen[key] = true
	w := appByName(s, name)
	pl.traces = append(pl.traces, Job{Key: key, Run: func() { s.Trace(w) }})
}

func (pl *planner) addPolicySweep(s *Suite, names []string, policies []core.PolicyKind) {
	pl.addTraces(s, names)
	for _, n := range names {
		for _, p := range policies {
			p := p
			key := s.label + "|run|" + n + "/" + p.String()
			if pl.seen[key] {
				continue
			}
			pl.seen[key] = true
			w := appByName(s, n)
			pl.sims = append(pl.sims, Job{Key: key, Run: func() { s.Run(w, p) }})
		}
	}
}

// addConfig queues one runConfig job; split is runConfig's.
func (pl *planner) addConfig(s *Suite, name, cfgKey string, cfg core.Config, split bool) {
	pl.addTrace(s, name)
	key := s.label + "|cfg|" + name + "/" + cfgKey
	if pl.seen[key] {
		return
	}
	pl.seen[key] = true
	w := appByName(s, name)
	pl.sims = append(pl.sims, Job{Key: key, Run: func() { s.runConfig(cfgKey, w, cfg, split) }})
}

func (pl *planner) addHMM(s *Suite, name string, rate float64) {
	pl.addTrace(s, name)
	j := hmmJob(s, appByName(s, name), rate)
	if pl.seen[j.Key] {
		return
	}
	pl.seen[j.Key] = true
	pl.sims = append(pl.sims, j)
}

func hmmJob(s *Suite, w workload.Workload, rate float64) Job {
	return Job{
		Key: fmt.Sprintf("%s|hmm|%s/%.3f", s.label, w.Name(), rate),
		Run: func() { s.RunHMM(w, rate) },
	}
}
