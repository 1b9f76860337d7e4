package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/gmtsim/gmt"
	"github.com/gmtsim/gmt/internal/exp"
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
// the data root: every app under every core policy plus HMM serves
// exactly what gmt.Run prints for a freshly built workload.
func TestSimBytesMatchFreshGmtRun(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 64})
	defer s.Drain()

	fresh := append(gmt.Suite(tinyScale), gmt.KVServe(tinyScale))
	policies := []gmt.Policy{gmt.BaM, gmt.Reuse, gmt.HMM, gmt.Oracle}
	ids := map[string]string{}
	for _, w := range fresh {
		for _, p := range policies {
			rec := post(t, s, simBody(t, w.Name(), tinyScale, tinyConfig(p)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("submit %s/%v: %d %s", w.Name(), p, rec.Code, rec.Body.String())
			}
			ids[w.Name()+"/"+p.String()] = decodeStatus(t, rec).ID
		}
	}
	for _, w := range fresh {
		for _, p := range policies {
			id := ids[w.Name()+"/"+p.String()]
			waitStatus(t, s, id, StatusDone)
			got := get(t, s, "/v1/jobs/"+id+"/result").Body.Bytes()
			want, err := json.MarshalIndent(gmt.Run(tinyConfig(p), w), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append(want, '\n')) {
				t.Errorf("%s under %v: served bytes differ from gmt.Run on a fresh workload\n got: %s\nwant: %s",
					w.Name(), p, got, want)
			}
		}
	}
	if n := len(held(s, &s.roots)); n != 1 {
		t.Fatalf("%d data roots for one scale, want 1", n)
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
