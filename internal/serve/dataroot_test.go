package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"github.com/gmtsim/gmt"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/raceflag"
	"github.com/gmtsim/gmt/internal/workload"
)

// tinyScale keeps dataset builds and simulations in these tests cheap.
var tinyScale = gmt.Scale{Tier1Pages: 64, Tier2Pages: 256, Oversubscription: 2}

// simBody is a sim submission for app under a full config at scale.
func simBody(t *testing.T, app string, scale gmt.Scale, cfg gmt.Config) string {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Kind: "sim", Sim: &SimRequest{App: app, Scale: &scale, Config: &cfg}})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// tinyConfig is the default config sized to tinyScale under policy p.
func tinyConfig(p gmt.Policy) gmt.Config {
	cfg := gmt.DefaultConfig()
	cfg.Policy = p
	cfg.Tier1Pages = tinyScale.Tier1Pages
	cfg.Tier2Pages = tinyScale.Tier2Pages
	return cfg
}

// runJob submits body, waits for the job to finish, and returns its id
// and result bytes.
func runJob(t *testing.T, s *Server, body string) (string, []byte) {
	t.Helper()
	rec := post(t, s, body)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("submit %s: %d %s", body, rec.Code, rec.Body.String())
	}
	v := decodeStatus(t, rec)
	waitStatus(t, s, v.ID, StatusDone)
	res := get(t, s, "/v1/jobs/"+v.ID+"/result")
	if res.Code != http.StatusOK {
		t.Fatalf("result %s: %d %s", v.ID, res.Code, res.Body.String())
	}
	return v.ID, res.Body.Bytes()
}

// held snapshots one of the server's suite maps, least recently used
// first.
func held(s *Server, c *suiteLRU) []*exp.Suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*exp.Suite, len(c.entries))
	for i, e := range c.entries {
		out[i] = e.suite
	}
	return out
}

// TestSimBytesMatchFreshGmtRun pins the sim job's bytes contract across
// the data root and the runner pool: every app under every policy, and
// configs that set each optional knob, serve exactly what gmt.Run
// prints for a freshly built workload. With one worker, one pooled
// runner runs every job, and the first job is a large one, so each case
// runs on a runner that carries the capacity of a longer trace, a
// bigger footprint and a grown sampler. With three, the workers share
// the pool concurrently.
func TestSimBytesMatchFreshGmtRun(t *testing.T) {
	type simCase struct {
		w     gmt.Workload
		scale gmt.Scale
		cfg   gmt.Config
	}
	bigScale := gmt.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2}
	big := gmt.DefaultConfig()
	big.Tier1Pages, big.Tier2Pages = bigScale.Tier1Pages, bigScale.Tier2Pages
	big.SampleTarget = 1 << 20
	big.HistorySample = 64
	big.PrefetchDegree = 8
	big.TrackTier2Reuse = true
	byName := func(ws []gmt.Workload, name string) gmt.Workload {
		for _, w := range ws {
			if w.Name() == name {
				return w
			}
		}
		t.Fatalf("no workload %s", name)
		return nil
	}
	cases := []simCase{{byName(gmt.Suite(bigScale), "PageRank"), bigScale, big}}

	fresh := append(gmt.Suite(tinyScale), gmt.KVServe(tinyScale))
	policies := []gmt.Policy{gmt.BaM, gmt.TierOrder, gmt.Random, gmt.Reuse, gmt.HMM, gmt.Oracle}
	for _, w := range fresh {
		for _, p := range policies {
			cases = append(cases, simCase{w, tinyScale, tinyConfig(p)})
		}
	}
	knobs := []func(*gmt.Config){
		func(c *gmt.Config) { c.HistorySample = 64 },
		func(c *gmt.Config) { c.TrackTier2Reuse = true },
		func(c *gmt.Config) { c.Tier2Policy = "2q" },
		func(c *gmt.Config) { c.PrefetchDegree = 4 },
		func(c *gmt.Config) { c.AsyncEviction = true },
		func(c *gmt.Config) { c.Warps = 48 },
	}
	for _, name := range []string{"Srad", "BFS", "KVServe"} {
		w := byName(fresh, name)
		for _, p := range []gmt.Policy{gmt.Random, gmt.Reuse} {
			for _, knob := range knobs {
				cfg := tinyConfig(p)
				knob(&cfg)
				cases = append(cases, simCase{w, tinyScale, cfg})
			}
		}
	}

	want := make([][]byte, len(cases))
	for i, c := range cases {
		res, err := json.MarshalIndent(gmt.Run(c.cfg, c.w), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(res, '\n')
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := New(Options{Workers: workers, QueueDepth: 128})
			defer s.Drain()
			ids := make([]string, len(cases))
			for i, c := range cases {
				rec := post(t, s, simBody(t, c.w.Name(), c.scale, c.cfg))
				if rec.Code != http.StatusAccepted {
					t.Fatalf("submit %s %+v: %d %s", c.w.Name(), c.cfg, rec.Code, rec.Body.String())
				}
				ids[i] = decodeStatus(t, rec).ID
				if i == 0 {
					waitStatus(t, s, ids[0], StatusDone) // warm a runner first
				}
			}
			for i, c := range cases {
				waitStatus(t, s, ids[i], StatusDone)
				if got := get(t, s, "/v1/jobs/"+ids[i]+"/result").Body.Bytes(); !bytes.Equal(got, want[i]) {
					t.Errorf("%s under %+v: served bytes differ from gmt.Run on a fresh workload\n got: %s\nwant: %s",
						c.w.Name(), c.cfg, got, want[i])
				}
			}
			s.Drain()
			if n := len(held(s, &s.roots)); n != 2 {
				t.Fatalf("%d data roots for two scales, want 2", n)
			}
			if n := len(s.runners); n < 1 || n > workers {
				t.Fatalf("%d pooled runners, want 1 to %d", n, workers)
			}
		})
	}
}

// TestSimAndExperimentsShareOneDataRoot: a graph sim job and fig9 at
// two seeds, all at one scale, run over a single data root — one set
// of workloads (so one Kronecker graph build) and one trace memo —
// while each experiment still serves a fresh suite's exact bytes.
func TestSimAndExperimentsShareOneDataRoot(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	defer s.Drain()

	runJob(t, s, simBody(t, "BFS", tinyScale, tinyConfig(gmt.Reuse)))
	sc := workload.Scale(tinyScale)
	for _, seed := range []int64{1, 2} {
		_, got := runJob(t, s, fmt.Sprintf(
			`{"kind":"experiment","experiment":{"name":"fig9","t1":%d,"t2":%d,"seed":%d}}`,
			sc.Tier1Pages, sc.Tier2Pages, seed))
		ref := exp.NewSuite(sc)
		ref.Seed = seed
		rows, _, _ := exp.RunExperiment(func() *exp.Suite { return ref }, "fig9", nil)
		var want bytes.Buffer
		if err := exp.EncodeExperiment(&want, "fig9", rows); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("fig9 seed %d differs from a fresh suite's bytes\n got: %s\nwant: %s", seed, got, want.Bytes())
		}
	}

	roots, suites := held(s, &s.roots), held(s, &s.suites)
	if len(roots) != 1 || len(suites) != 2 {
		t.Fatalf("%d data roots and %d suites, want 1 and 2", len(roots), len(suites))
	}
	root := roots[0]
	for _, suite := range suites {
		for i, w := range suite.Apps() {
			if w != root.Apps()[i] {
				t.Fatalf("suite %s: app %s is not the data root's workload", suite.Fingerprint(), w.Name())
			}
			if &suite.Trace(w)[0] != &root.Trace(w)[0] {
				t.Fatalf("suite %s: %s trace is not the data root's memo", suite.Fingerprint(), w.Name())
			}
		}
	}
}

// TestDatasetSeedsGetDistinctRoots: the dataset seed is part of both the
// data root's key and the sim job's key, so two seeds neither share a
// graph nor collapse onto one cached result.
func TestDatasetSeedsGetDistinctRoots(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Drain()

	other := tinyScale
	other.DatasetSeed = 7
	idA, a := runJob(t, s, simBody(t, "BFS", tinyScale, tinyConfig(gmt.Reuse)))
	idB, b := runJob(t, s, simBody(t, "BFS", other, tinyConfig(gmt.Reuse)))
	if idA == idB || bytes.Equal(a, b) {
		t.Fatalf("dataset seeds 0 and 7 served one result (ids %s, %s)", idA, idB)
	}
	roots := held(s, &s.roots)
	if len(roots) != 2 || roots[0].Scale.DatasetSeed != 0 || roots[1].Scale.DatasetSeed != 7 {
		t.Fatalf("data roots %v, want one per dataset seed", roots)
	}
}

// TestSuiteMapsStayBounded floods the daemon with experiments over
// distinct dataset seeds: both per-scale maps stay at their bounds, the
// simulation counter keeps counting evicted suites' work, and a job
// whose suite, data root and cached result were all evicted re-executes
// to the same bytes.
func TestSuiteMapsStayBounded(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4, CacheEntries: 1})
	defer s.Drain()

	body := func(dseed int) string {
		return fmt.Sprintf(`{"kind":"experiment","experiment":{"name":"fig9","t1":32,"t2":128,"dataset_seed":%d}}`, dseed)
	}
	_, first := runJob(t, s, body(1))
	perJob := metricValue(t, s, "gmtd_simulations_total")
	if perJob == 0 {
		t.Fatal("fig9 recorded no simulations")
	}
	flood := maxSuites + 2
	for i := 2; i <= flood; i++ {
		runJob(t, s, body(i))
		if got, want := metricValue(t, s, "gmtd_simulations_total"), int64(i)*perJob; got != want {
			t.Fatalf("after %d jobs simulations_total = %d, want %d", i, got, want)
		}
	}
	if got := metricValue(t, s, "gmtd_data_roots"); got != maxDataRoots {
		t.Fatalf("gmtd_data_roots = %d, want the bound %d", got, maxDataRoots)
	}
	if got := metricValue(t, s, "gmtd_suites"); got != maxSuites {
		t.Fatalf("gmtd_suites = %d, want the bound %d", got, maxSuites)
	}

	rec := post(t, s, body(1))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("re-request of an evicted job: want a fresh execution (202), got %d %s", rec.Code, rec.Body.String())
	}
	_, again := runJob(t, s, body(1))
	if !bytes.Equal(again, first) {
		t.Fatal("re-executed job differs from its first result")
	}
	if got, want := metricValue(t, s, "gmtd_simulations_total"), int64(flood+1)*perJob; got != want {
		t.Fatalf("simulations_total = %d after re-execution, want %d", got, want)
	}
	if n, m := len(held(s, &s.roots)), len(held(s, &s.suites)); n != maxDataRoots || m != maxSuites {
		t.Fatalf("%d data roots and %d suites held, want %d and %d", n, m, maxDataRoots, maxSuites)
	}
}

// TestWorkerPanicFailsJob: a panic inside a job's execution marks that
// job failed instead of killing the worker, and the next submission is
// served by the same worker from the same data root.
func TestWorkerPanicFailsJob(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Drain()
	realExec := s.exec
	panicked := false // touched only by the lone worker
	s.exec = func(j *job) ([]byte, error) {
		payload, err := realExec(j)
		if !panicked {
			panicked = true
			panic("simulated crash")
		}
		return payload, err
	}

	rec := post(t, s, simBody(t, "BFS", tinyScale, tinyConfig(gmt.Reuse)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	st := waitForTerminal(t, s, decodeStatus(t, rec).ID)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "simulated crash") {
		t.Fatalf("panicking job finished as %q (error %q), want failed with the panic", st.Status, st.Error)
	}
	if got := metricValue(t, s, "gmtd_jobs_failed_total"); got != 1 {
		t.Fatalf("jobs_failed_total = %d, want 1", got)
	}
	roots := held(s, &s.roots)

	runJob(t, s, simBody(t, "BFS", tinyScale, tinyConfig(gmt.BaM)))
	after := held(s, &s.roots)
	if len(roots) != 1 || len(after) != 1 || after[0] != roots[0] {
		t.Fatalf("data roots %v before and %v after the panic, want one shared root", roots, after)
	}
}

// TestSimRunnerAllocGate: a sim job on a warm runner allocates nothing
// that grows with its trace. The data root's trace is memoized and the
// runner reads it in place, so MultiVectorAdd (4095 accesses) and Srad
// (17216, 4.2× as many) each allocate at most 8 objects and 16 KB — the
// encoded result. Copying the trace into a fresh runtime on every job
// cost 200 KB and more.
func TestSimRunnerAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	s := New(Options{Workers: 1})
	defer s.Drain()
	sc := gmt.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2}
	cfg := gmt.DefaultConfig()
	cfg.Tier1Pages, cfg.Tier2Pages = sc.Tier1Pages, sc.Tier2Pages
	apps := []string{"MultiVectorAdd", "Srad"}
	runs := make([]func(context.Context) ([]byte, error), len(apps))
	for i, app := range apps {
		_, run, err := s.buildSim(&SimRequest{App: app, Scale: &sc, Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runs[i] = run
	}
	for i, run := range runs {
		job := func() {
			if _, err := run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job()
		runtime.ReadMemStats(&after)
		objects := testing.AllocsPerRun(5, job)
		if kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024; objects > 8 || kb > 16 {
			t.Errorf("%s: a warm sim job allocated %.0f objects and %.1f KB, want <= 8 and <= 16", apps[i], objects, kb)
		}
	}
}

// TestColdSimRunnerAllocGate: a cold runner's first job — Srad under
// GMT-TierOrder, its data root's trace already memoized — allocates at
// most 512 KB: the engine, runtime and GPU sized to the footprint (443
// KB measured) and the encoded result. One copy of the 17,216-access
// trace is 269 KB, and the runner makes none; copying it into a job
// buffer and again into the runner's own took 987 KB.
func TestColdSimRunnerAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	s := New(Options{Workers: 1})
	defer s.Drain()
	sc := gmt.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2}
	cfg := gmt.DefaultConfig()
	cfg.Policy = gmt.TierOrder
	cfg.Tier1Pages, cfg.Tier2Pages = sc.Tier1Pages, sc.Tier2Pages
	_, run, err := s.buildSim(&SimRequest{App: "Srad", Scale: &sc, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	job := func() {
		if _, err := run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	job() // memoizes the trace
	s.mu.Lock()
	s.runners = nil
	s.mu.Unlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job()
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024; kb > 512 {
		t.Errorf("a cold runner's Srad job allocated %.1f KB, want <= 512", kb)
	}
}

// TestSeedBlindSimJobsShareOneExecution: sim jobs that differ only in
// what their policy never reads are one job. TierOrder at seeds 1 and
// 2, and BaM at seeds 1 and 2 with Tier-2 doubled, each execute once
// and serve the bytes gmt.Run gives the second request; Reuse, whose
// sampling coin draws from the seeded stream, executes once per seed.
func TestSeedBlindSimJobsShareOneExecution(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8})
	defer s.Drain()
	var srad gmt.Workload
	for _, w := range gmt.Suite(tinyScale) {
		if w.Name() == "Srad" {
			srad = w
		}
	}
	for _, c := range []struct {
		policy gmt.Policy
		runs   int64
	}{{gmt.TierOrder, 1}, {gmt.BaM, 1}, {gmt.Reuse, 2}} {
		before := metricValue(t, s, "gmtd_simulations_total")
		for _, seed := range []int64{1, 2} {
			cfg := tinyConfig(c.policy)
			cfg.Seed = seed
			if c.policy == gmt.BaM {
				cfg.Tier2Pages *= int(seed)
			}
			_, got := runJob(t, s, simBody(t, "Srad", tinyScale, cfg))
			want, err := json.MarshalIndent(gmt.Run(cfg, srad), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append(want, '\n')) {
				t.Errorf("%v seed %d: served bytes differ from gmt.Run", c.policy, seed)
			}
		}
		if runs := metricValue(t, s, "gmtd_simulations_total") - before; runs != c.runs {
			t.Errorf("%v at seeds 1 and 2: %d executions, want %d", c.policy, runs, c.runs)
		}
	}
}
