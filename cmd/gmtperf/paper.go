package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/workload"
)

// sweepExperiments are the sensitivity figures: derived sub-suites,
// dataset adoption, prefix forking and phased runs all live here.
var sweepExperiments = []string{"fig11", "fig12", "fig13"}

// coreExperiments is every other experiment gmtbench knows.
func coreExperiments() []string {
	var out []string
	for _, name := range exp.ExperimentNames {
		if !slices.Contains(sweepExperiments, name) {
			out = append(out, name)
		}
	}
	return out
}

// quickScale is gmtbench -quick's scale (T1=256, T2=1024, OSF 2) with the
// run's dataset seed.
func quickScale(seed int64) workload.Scale {
	return workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2, DatasetSeed: seed}
}

// paperBench runs the experiments on a fresh suite per pass.
func paperBench(experiments []string, seed int64) bench {
	return bench{pass: func(lay layers) (passResult, error) {
		digest, err := paperPass(exp.NewSuite(quickScale(seed)), experiments, lay)
		return passResult{digest: digest}, err
	}, ops: 1}
}

// paperPass fills the suite's memo and renders and encodes every
// experiment, returning the digest of the encoded bytes — what
// `gmtbench -quick -json` prints. Untraced, the memo is filled by
// exp.Prewarm on one worker. Traced, the same plan runs phase by phase
// through exp.RunJobs with every job timed, and the pass is split into
// plan, job classes, rendering and encoding; whatever those miss is
// exp.unattributed_ms.
func paperPass(s *exp.Suite, experiments []string, lay layers) (string, error) {
	start := time.Now()
	if lay == nil {
		if _, err := exp.Prewarm(context.Background(), s, experiments, 1, nil); err != nil {
			return "", err
		}
	} else if err := runPlanTimed(s, experiments, lay); err != nil {
		return "", err
	}
	var out bytes.Buffer
	var renderNS, encodeNS time.Duration
	for _, name := range experiments {
		t := time.Now()
		rows, _, ok := exp.RunExperiment(func() *exp.Suite { return s }, name, nil)
		renderNS += time.Since(t)
		if !ok {
			return "", fmt.Errorf("unknown experiment %q", name)
		}
		t = time.Now()
		if err := exp.EncodeExperiment(&out, name, rows); err != nil {
			return "", err
		}
		encodeNS += time.Since(t)
	}
	if lay != nil {
		lay.set("exp.render_ms", ms(renderNS), len(experiments))
		lay.set("exp.encode_ms", ms(encodeNS), len(experiments))
		sims, hits := s.Counters()
		lay.set("exp.memo.sims", float64(sims), 1)
		lay.set("exp.memo.hits", float64(hits), 1)
		if sims+hits > 0 {
			lay.set("exp.memo.hit_ratio", float64(hits)/float64(sims+hits), 1)
		}
		total, attributed := ms(time.Since(start)), 0.0
		for _, name := range attributedMS {
			attributed += lay[name].v
		}
		lay.set("exp.unattributed_ms", total-attributed, 1)
		if math.Abs(total-attributed) > 0.05*total {
			return "", fmt.Errorf("time components sum to %.0f ms of a %.0f ms pass, beyond 5%%", attributed, total)
		}
	}
	return sha(out.Bytes()), nil
}

// attributedMS are the components of a traced paper pass; with
// exp.unattributed_ms they sum to the pass wall time.
var attributedMS = func() []string {
	names := []string{"exp.plan_ms", "exp.render_ms", "exp.encode_ms", "workload.trace_ms",
		"sim.cfg_ms", "sim.prefix_ms", "core.oracle_ms", "baseline.hmm_ms"}
	for _, p := range runPolicies {
		names = append(names, "sim.run_ms."+p)
	}
	return names
}()

// runPlanTimed is exp.Prewarm on one worker with every job wrapped in a
// timer keyed by its job class. A job key of no known class fails the
// pass rather than moving its time into exp.unattributed_ms.
func runPlanTimed(s *exp.Suite, experiments []string, lay layers) error {
	t := time.Now()
	phases := exp.Plan(s, experiments)
	lay.add("exp.plan_ms", ms(time.Since(t)))
	jobs := 0
	for _, ph := range phases {
		list := ph.Jobs
		if ph.More != nil {
			t := time.Now()
			list = append(list, ph.More()...)
			lay.add("exp.plan_ms", ms(time.Since(t)))
		}
		timed := make([]exp.Job, len(list))
		for i, j := range list {
			if class, _ := jobClass(j.Key); class == "other" {
				return fmt.Errorf("planned job %q has no class; jobClass is stale", j.Key)
			}
			j := j
			timed[i] = exp.Job{Key: j.Key, Run: func() { timeJob(j, lay) }}
		}
		if _, err := exp.RunJobs(context.Background(), timed, 1, nil); err != nil {
			return err
		}
		jobs += len(list)
	}
	lay.set("exp.jobs", float64(jobs), 1)
	return nil
}

// timeJob runs one planner job, charging its wall time (and its
// allocation, for trace and simulation jobs) to its class's metric.
func timeJob(j exp.Job, lay layers) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	j.Run()
	d := ms(time.Since(t))
	runtime.ReadMemStats(&m1)
	allocMB := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	class, detail := jobClass(j.Key)
	if class == "trace" {
		lay.add("workload.trace_ms", d)
		lay.add("workload.trace_alloc_mb", allocMB)
		return
	}
	lay.add("sim.alloc_mb", allocMB)
	switch class {
	case "run":
		// detail is "<app>/<policy>".
		lay.add("sim.run_ms."+detail[strings.LastIndex(detail, "/")+1:], d)
	case "cfg":
		lay.add("sim.cfg_ms", d)
	case "prefix":
		lay.add("sim.prefix_ms", d)
	case "oracle":
		lay.add("core.oracle_ms", d)
	case "hmm":
		lay.add("baseline.hmm_ms", d)
	}
}

// jobClass splits an exp.Plan job key into its class and the rest. Keys
// are "<suite label>|<class>|<detail>", except the warm-up prefix
// parents shared across sub-suites, which are "prefix|<detail>". A key
// of any other shape is class "other", which no metric receives.
func jobClass(key string) (class, detail string) {
	parts := strings.SplitN(key, "|", 3)
	if len(parts) >= 2 && parts[0] == "prefix" {
		return "prefix", strings.Join(parts[1:], "|")
	}
	if len(parts) == 3 {
		switch parts[1] {
		case "trace", "run", "cfg", "hmm", "oracle":
			return parts[1], parts[2]
		}
	}
	return "other", key
}
