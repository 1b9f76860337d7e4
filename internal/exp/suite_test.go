package exp

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/workload"
)

// TestSuiteSeedInvalidation is the stale-memoization regression: memo
// keys used to be (app, policy) only, so mutating Suite.Seed between
// runs returned results computed under the old seed.
func TestSuiteSeedInvalidation(t *testing.T) {
	s := NewSuite(testScale())
	w := s.Apps()[1] // Pathfinder: cheap
	first := s.Run(w, core.PolicyRandom)
	if got := s.Simulations(); got != 1 {
		t.Fatalf("simulations after first run = %d, want 1", got)
	}
	s.Seed = 99
	s.Run(w, core.PolicyRandom)
	if got := s.Simulations(); got != 2 {
		t.Fatalf("changing Seed did not re-simulate: %d simulations, want 2", got)
	}
	// Restoring the seed must find the original memoized result again,
	// bit for bit, without another simulation.
	s.Seed = 1
	third := s.Run(w, core.PolicyRandom)
	if got := s.Simulations(); got != 2 {
		t.Fatalf("restored Seed re-simulated: %d simulations, want 2", got)
	}
	if third != first {
		t.Fatal("restored Seed returned a different result than the original run")
	}
}

// TestSuiteGPUInvalidation: same regression for the GPU configuration.
func TestSuiteGPUInvalidation(t *testing.T) {
	s := NewSuite(testScale())
	w := s.Apps()[1]
	first := s.Run(w, core.PolicyBaM)
	s.GPU.Warps /= 2
	second := s.Run(w, core.PolicyBaM)
	if got := s.Simulations(); got != 2 {
		t.Fatalf("changing GPU config did not re-simulate: %d simulations, want 2", got)
	}
	if first.WallTime == second.WallTime {
		t.Fatal("halving the warp count left the wall time unchanged")
	}
}

// TestSuiteHMMSeedInvalidation covers the RunHMM memo path.
func TestSuiteHMMSeedInvalidation(t *testing.T) {
	s := NewSuite(testScale())
	w := s.Apps()[1]
	s.RunHMM(w, -1)
	s.Seed = 7
	s.RunHMM(w, -1)
	if got := s.Simulations(); got != 2 {
		t.Fatalf("changing Seed did not re-simulate HMM: %d simulations, want 2", got)
	}
}

// TestSuiteHMMRateKey: RunHMM's memo key is its whole config, so two
// forced hit rates that agree to three decimals are two runs, and the
// second returns its own result.
func TestSuiteHMMRateKey(t *testing.T) {
	s := NewSuite(testScale())
	s.RunHMM(appByName(s, "Srad"), 0.4641)
	got := s.RunHMM(appByName(s, "Srad"), 0.4644)
	if n := s.Simulations(); n != 2 {
		t.Fatalf("two forced hit rates ran %d simulations, want 2", n)
	}
	fresh := NewSuite(testScale())
	if want := fresh.RunHMM(appByName(fresh, "Srad"), 0.4644); got != want {
		t.Fatalf("RunHMM(0.4644) after RunHMM(0.4641) took %d ns; a fresh suite's takes %d ns",
			got.WallTime, want.WallTime)
	}
}

// TestTable2ThenFigure7AnalyzeOnce: Table 2 analyzes each trace once
// and Figure 7 reads the same analyses instead of redoing them.
func TestTable2ThenFigure7AnalyzeOnce(t *testing.T) {
	s := shared.WithSeed(shared.Seed) // shared's traces, fresh analyses
	Table2(s)
	if n := len(s.analyses.vals); n != len(s.Apps()) {
		t.Fatalf("Table 2 stored %d analyses for %d apps", n, len(s.Apps()))
	}
	// Mark every stored analysis with a reuse share no trace can have;
	// Figure 7 shows the mark only if it reads the memo.
	for _, w := range s.Apps() {
		c := s.analyses.vals[w.Name()]
		c.ReusedPages = c.DistinctPages + 1
		s.analyses.vals[w.Name()] = c
	}
	rows, _ := Figure7(s)
	for _, r := range rows {
		if r.ReusePct <= 1 {
			t.Errorf("%s: Figure 7 analyzed the trace again (reuse %.3f)", r.App, r.ReusePct)
		}
	}
}

// TestMemoSingleflight: concurrent callers of one key share a single
// computation, and a computation that panics leaves nothing behind, so
// the next caller computes afresh.
func TestMemoSingleflight(t *testing.T) {
	var m memo[string, int]
	var calls atomic.Int64
	release := make(chan struct{})
	got := make([]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = m.get("k", func() int {
				calls.Add(1)
				<-release
				return 7
			})
		}()
	}
	// Hold the first computation open while the other callers arrive.
	// The result does not depend on the wait: it only gives a memo that
	// lets a second caller compute the time to show it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d concurrent callers computed %d times, want once", len(got), n)
	}
	for _, v := range got {
		if v != 7 {
			t.Fatalf("callers got %v, want all 7", got)
		}
	}
	func() {
		defer func() { _ = recover() }()
		m.get("p", func() int { panic("boom") })
	}()
	if v, computed := m.get("p", func() int { return 3 }); v != 3 || !computed {
		t.Fatalf("after a panicked computation: got %d (computed %v), want a fresh 3", v, computed)
	}
}

func TestSuiteCacheHitCounter(t *testing.T) {
	s := NewSuite(testScale())
	w := s.Apps()[1]
	s.Run(w, core.PolicyBaM)
	s.Run(w, core.PolicyBaM)
	s.Run(w, core.PolicyBaM)
	if sims, hits := s.Counters(); sims != 1 || hits != 2 {
		t.Fatalf("sims=%d hits=%d, want 1 and 2", sims, hits)
	}
}

// TestPlanDedup: overlapping experiments must not schedule the same
// simulation twice, whether they name it alike or build equal configs.
func TestPlanDedup(t *testing.T) {
	for _, c := range []struct {
		exps         []string
		traces, sims int
	}{
		// 9 apps x (BaM + 3 policies), with fig9's Reuse runs and
		// fig10/util's sweeps all deduplicated into the same 36 jobs.
		{[]string{"fig8", "fig10", "util", "fig9"}, 9, 36},
		// ssd adds 3 apps x 7 drives x 2 policies, predictors 9 apps x 3
		// predictors; ssd's paper drive and its one-drive array are
		// fig8's BaM and Reuse runs, as are predictors' Markov runs, so
		// 36 + 30 + 18 jobs, not 105.
		{[]string{"fig8", "ssd", "predictors"}, 9, 84},
	} {
		s := NewSuite(workload.Scale{Tier1Pages: 32, Tier2Pages: 128, Oversubscription: 2})
		seen := map[string]bool{}
		traces, sims := 0, 0
		for _, ph := range Plan(s, c.exps) {
			for _, j := range ph.Jobs {
				if seen[j.Key] {
					t.Fatalf("%v: duplicate job %s", c.exps, j.Key)
				}
				seen[j.Key] = true
				switch ph.Name {
				case "traces":
					traces++
				case "simulate":
					sims++
				}
			}
		}
		if traces != c.traces || sims != c.sims {
			t.Fatalf("%v: planned traces=%d sims=%d, want %d and %d", c.exps, traces, sims, c.traces, c.sims)
		}
		// Two jobs with one run key would make the second a memo hit.
		if _, err := Prewarm(context.Background(), s, c.exps, 1, nil); err != nil {
			t.Fatal(err)
		}
		if got, hits := s.Counters(); got != int64(c.sims) || hits != 0 {
			t.Fatalf("%v: %d planned simulations ran %d and hit the memo %d times", c.exps, c.sims, got, hits)
		}
	}
}

// TestPlanGraphTraceFirst: the first trace job must be a graph app, so
// the expensive shared Kronecker/CSR build starts before anything else.
func TestPlanGraphTraceFirst(t *testing.T) {
	s := NewSuite(testScale())
	phases := Plan(s, []string{"table2"})
	if len(phases[0].Jobs) == 0 {
		t.Fatal("no trace jobs planned")
	}
	first := phases[0].Jobs[0].Key
	if !strings.Contains(first, "|trace|") || !isGraphApp(first[strings.LastIndex(first, "|")+1:]) {
		t.Fatalf("first trace job %q is not a graph app", first)
	}
}

// TestPrewarmCoversRendering is the planner-drift gate, both ways.
// After a prewarm of every suite-backed experiment, rendering those
// experiments must be served entirely from the memo — zero additional
// simulations — so a driver that grows a run the planner doesn't know
// about fails here. And a fresh suite that renders the same experiments
// without a prewarm must run as many simulations, so the plan holds no
// run that no figure reads.
func TestPrewarmCoversRendering(t *testing.T) {
	scale := workload.Scale{Tier1Pages: 128, Tier2Pages: 512, Oversubscription: 2}
	// warmup is excluded: its pipelined-regression runs need runtime
	// history the memo doesn't carry, so they always run at render time.
	exps := []string{"table1", "table2", "fig4", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "oracle", "ext", "ssd", "predictors", "util", "kvserve"}
	render := func(s *Suite) {
		Table1(s)
		Table2(s)
		Figure4(s)
		Figure7(s)
		Figure8(s)
		Figure9(s)
		Figure10(s)
		Figure11(s)
		Figure12(s)
		Figure13(s)
		Figure14(s)
		OracleGap(s)
		Extensions(s)
		SSDSensitivity(s)
		SSDCountSweep(s)
		PredictorAblation(s)
		Utilization(s)
		KVServe(s)
	}
	s := NewSuite(scale)
	rep, err := Prewarm(context.Background(), s, exps, 3, nil)
	if err != nil {
		t.Fatalf("prewarm failed: %v", err)
	}
	if rep.JobsPlanned == 0 || rep.Sims == 0 {
		t.Fatalf("prewarm did nothing: %+v", rep)
	}
	sims0, _ := s.Counters()
	render(s)
	sims1, _ := s.Counters()
	if sims1 != sims0 {
		t.Fatalf("rendering ran %d simulations the planner missed", sims1-sims0)
	}
	fresh := NewSuite(scale)
	render(fresh)
	if rendered, _ := fresh.Counters(); rendered != sims0 {
		t.Fatalf("the prewarm ran %d simulations, rendering alone %d: the plan holds runs no figure reads",
			sims0, rendered)
	}
}

// TestRunJobsPanicPropagates: a failing simulation must surface the
// same way it would sequentially.
func TestRunJobsPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the job's panic", r)
		}
	}()
	zero := func() int64 { return 0 }
	runJobs(context.Background(), []Job{
		{Key: "ok", Run: func() {}},
		{Key: "bad", Run: func() { panic("boom") }},
	}, 2, zero, nil)
	t.Fatal("runJobs returned despite a panicking job")
}
