package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gmtsim/gmt"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/fleet"
	"github.com/gmtsim/gmt/internal/workload"
)

// post submits a request body and returns the recorded response.
func post(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decodeStatus(t *testing.T, rec *httptest.ResponseRecorder) JobStatus {
	t.Helper()
	var v JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return v
}

// waitStatus polls a job until it reaches want (or the deadline).
func waitStatus(t *testing.T, s *Server, id string, want Status) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := get(t, s, "/v1/jobs/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s: %d %s", id, rec.Code, rec.Body.String())
		}
		v := decodeStatus(t, rec)
		if v.Status == want {
			return v
		}
		if v.Status == StatusFailed && want != StatusFailed {
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return JobStatus{}
}

// metricValue extracts one series' value from /metrics.
func metricValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(rec.Body.String())
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, rec.Body.String())
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatalf("parsing %s value %q: %v", name, m[1], err)
	}
	return v
}

// expBody builds an experiment submission for distinct-keyed jobs.
func expBody(name string) string {
	return fmt.Sprintf(`{"kind":"experiment","experiment":{"name":%q,"quick":true}}`, name)
}

// blockingServer replaces the executor with one that signals start and
// blocks until released, so tests control worker occupancy exactly.
func blockingServer(t *testing.T, opts Options) (*Server, chan string, chan struct{}) {
	t.Helper()
	s := New(opts)
	started := make(chan string, 64)
	release := make(chan struct{})
	s.exec = func(j *job) ([]byte, error) {
		started <- j.id
		<-release
		return []byte("{}\n"), nil
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		s.Drain()
	})
	return s, started, release
}

func TestQueueFullRejectsWith429RetryAfter(t *testing.T) {
	s, started, release := blockingServer(t, Options{Workers: 1, QueueDepth: 1})

	// First job occupies the lone worker...
	rec := post(t, s, expBody("fig8"))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", rec.Code, rec.Body.String())
	}
	<-started
	// ...second fills the queue...
	if rec := post(t, s, expBody("fig9")); rec.Code != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", rec.Code, rec.Body.String())
	}
	// ...third must be turned away with backpressure advice.
	rec = post(t, s, expBody("fig10"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("submit 3: want 429, got %d %s", rec.Code, rec.Body.String())
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1,60]", rec.Header().Get("Retry-After"))
	}
	if got := metricValue(t, s, `gmtd_jobs_rejected_total{reason="queue_full"}`); got != 1 {
		t.Fatalf("rejected_total{queue_full} = %d, want 1", got)
	}
	close(release)
}

// Regression: before any job has completed the latency EWMA is empty,
// and Retry-After used to collapse to the 1-second floor no matter how
// full the queue was — a synchronized stampede invitation. The estimate
// must instead be seeded from Options.ColdStartLatency.
func TestColdStartRetryAfterNotFloor(t *testing.T) {
	s, started, release := blockingServer(t,
		Options{Workers: 1, QueueDepth: 1, ColdStartLatency: 10 * time.Second})

	if rec := post(t, s, expBody("fig8")); rec.Code != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", rec.Code, rec.Body.String())
	}
	<-started
	if rec := post(t, s, expBody("fig9")); rec.Code != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", rec.Code, rec.Body.String())
	}
	rec := post(t, s, expBody("fig10"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("submit 3: want 429, got %d %s", rec.Code, rec.Body.String())
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After = %q, want an integer", rec.Header().Get("Retry-After"))
	}
	// Two pending jobs at the 10s cold estimate over one worker: ~20s.
	if ra != 20 {
		t.Fatalf("cold-start Retry-After = %d, want 20 (EWMA seeded from ColdStartLatency)", ra)
	}
	close(release)
}

func TestDrainCompletesInFlightAndRejectsNew(t *testing.T) {
	s, started, release := blockingServer(t, Options{Workers: 1, QueueDepth: 4})

	inflight := decodeStatus(t, post(t, s, expBody("fig8")))
	<-started
	queued := decodeStatus(t, post(t, s, expBody("fig9")))

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is rejected while draining...
	if rec := post(t, s, expBody("fig10")); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: want 503, got %d %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: want 503, got %d", rec.Code)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a job was still executing")
	default:
	}

	// ...but admitted jobs — running and queued — run to completion.
	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after jobs were released")
	}
	for _, id := range []string{inflight.ID, queued.ID} {
		v := decodeStatus(t, get(t, s, "/v1/jobs/"+id))
		if v.Status != StatusDone {
			t.Fatalf("job %s after drain: status %q, want done", id, v.Status)
		}
	}
}

func TestSingleflightCollapsesIdenticalInFlight(t *testing.T) {
	s, started, release := blockingServer(t, Options{Workers: 1, QueueDepth: 4})

	first := decodeStatus(t, post(t, s, expBody("fig8")))
	<-started
	rec := post(t, s, expBody("fig8"))
	if rec.Code != http.StatusOK {
		t.Fatalf("identical resubmit: want 200, got %d %s", rec.Code, rec.Body.String())
	}
	v := decodeStatus(t, rec)
	if !v.Cached || v.ID != first.ID {
		t.Fatalf("resubmit joined %+v, want cached view of %s", v, first.ID)
	}
	if got := metricValue(t, s, "gmtd_singleflight_joins_total"); got != 1 {
		t.Fatalf("joins_total = %d, want 1", got)
	}
	close(release)
}

func TestCacheHitServesWithoutResimulating(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Drain()

	body := `{"kind":"sim","sim":{"app":"MultiVectorAdd","scale":{"Tier1Pages":64,"Tier2Pages":256,"Oversubscription":2}}}`
	rec := post(t, s, body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cold submit: %d %s", rec.Code, rec.Body.String())
	}
	cold := decodeStatus(t, rec)
	waitStatus(t, s, cold.ID, StatusDone)
	payload := get(t, s, "/v1/jobs/"+cold.ID+"/result")
	if payload.Code != http.StatusOK {
		t.Fatalf("result: %d %s", payload.Code, payload.Body.String())
	}
	sims := metricValue(t, s, "gmtd_simulations_total")
	if sims == 0 {
		t.Fatal("cold run recorded no simulations")
	}

	// The identical resubmission is answered from the cache: same job,
	// same bytes, and — the contract the metric pins — no new simulation.
	rec = post(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm submit: %d %s", rec.Code, rec.Body.String())
	}
	warm := decodeStatus(t, rec)
	if !warm.Cached || warm.ID != cold.ID || warm.Status != StatusDone {
		t.Fatalf("warm view %+v, want cached done view of %s", warm, cold.ID)
	}
	warmPayload := get(t, s, "/v1/jobs/"+warm.ID+"/result")
	if !bytes.Equal(warmPayload.Body.Bytes(), payload.Body.Bytes()) {
		t.Fatal("warm result differs from cold result")
	}
	if got := metricValue(t, s, "gmtd_simulations_total"); got != sims {
		t.Fatalf("simulations_total moved %d -> %d on a cache hit", sims, got)
	}
	if got := metricValue(t, s, "gmtd_cache_hits_total"); got != 1 {
		t.Fatalf("cache_hits_total = %d, want 1", got)
	}
}

func TestExperimentResultMatchesCLIEncoding(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick fig8 suite")
	}
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Drain()

	rec := post(t, s, expBody("fig8"))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	v := decodeStatus(t, rec)
	waitStatus(t, s, v.ID, StatusDone)
	got := get(t, s, "/v1/jobs/"+v.ID+"/result").Body.Bytes()

	// The reference bytes are what `gmtbench -quick -json fig8` prints:
	// same suite construction, same driver, same encoder.
	suite := exp.NewSuite(workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2})
	suite.Seed = 1
	rows, _, ok := exp.RunExperiment(func() *exp.Suite { return suite }, "fig8", nil)
	if !ok {
		t.Fatal("fig8 missing from driver registry")
	}
	var want bytes.Buffer
	if err := exp.EncodeExperiment(&want, "fig8", rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("daemon payload differs from CLI encoding\n got: %s\nwant: %s", got, want.Bytes())
	}
}

// TestFleetResultMatchesCLIEncoding pins the fleet job's bytes
// contract: the served payload equals what `gmtfleet -json` prints for
// the same spec, because both resolve through fleet.FromOptions and
// encode through fleet.EncodeResult.
func TestFleetResultMatchesCLIEncoding(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4, JobParallelism: 2})
	defer s.Drain()

	body := `{"kind":"fleet","fleet":{"nodes":4,"templates":"a100:3,h100:1","requests":48,"seed":3}}`
	rec := post(t, s, body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	v := decodeStatus(t, rec)
	waitStatus(t, s, v.ID, StatusDone)
	got := get(t, s, "/v1/jobs/"+v.ID+"/result").Body.Bytes()

	cfg, err := fleet.FromOptions(fleet.Options{Nodes: 4, Templates: "a100:3,h100:1", Requests: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := fleet.Run(nil, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fleet.EncodeResult(&want, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("daemon payload differs from CLI encoding\n got: %s\nwant: %s", got, want.Bytes())
	}
}

// Regression: a partial JSON config used to replace the entire default
// config, so a request that only named a policy reached gmt.Run with
// Tier1Pages == 0 — the panic killed the worker goroutine and with it
// the daemon. Zero platform fields must inherit the request's scale
// and the defaults instead.
func TestSimPartialConfigRunsWithDefaults(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Drain()

	body := `{"kind":"sim","sim":{"app":"KVServe",` +
		`"scale":{"Tier1Pages":64,"Tier2Pages":256,"Oversubscription":2,"DatasetSeed":7},` +
		`"config":{"Policy":"GMT-TierOrder","Tier2Policy":"2q","TrackTier2Reuse":true}}}`
	rec := post(t, s, body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	v := decodeStatus(t, rec)
	waitStatus(t, s, v.ID, StatusDone)
	var res struct {
		Tier2ReuseCount int64
	}
	if err := json.Unmarshal(get(t, s, "/v1/jobs/"+v.ID+"/result").Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Tier2ReuseCount == 0 {
		t.Fatal("TrackTier2Reuse produced no reuse samples on the KVServe trace")
	}
}

// invalidSubmissions are bodies the submit handler must reject with a
// 400; they also seed FuzzSubmitValidation's corpus.
var invalidSubmissions = []string{
	`{`,
	`{"kind":"experiment"}`,
	`{"kind":"sim"}`,
	`{"kind":"mystery"}`,
	`{"kind":"experiment","experiment":{"name":"nope"}}`,
	`{"kind":"sim","sim":{"app":"nope"}}`,
	`{"kind":"sim","sim":{"app":"BFS"},"surprise":1}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"Tier2Policy":"mru"}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"Tier1Pages":-1}}}`,
	`{"kind":"fleet"}`,
	`{"kind":"fleet","fleet":{"nodes":0}}`,
	`{"kind":"fleet","fleet":{"nodes":4,"templates":"v100"}}`,
	`{"kind":"fleet","fleet":{"nodes":4,"router":"random"}}`,
	`{"kind":"fleet","fleet":{"nodes":4,"t2policy":"mru"}}`,
	`{"kind":"fleet","fleet":{"nodes":10000000}}`,
	`{"kind":"fleet","fleet":{"nodes":5000,"requests":100}}`,
	`{"kind":"fleet","fleet":{"nodes":4,"requests":2000000}}`,
	`{"kind":"experiment","experiment":{"name":"fig8","t1":100000000}}`,
	`{"kind":"experiment","experiment":{"name":"fig8","t2":100000000}}`,
	`{"kind":"experiment","experiment":{"name":"fig8","osf":1000000}}`,
	`{"kind":"experiment","experiment":{"name":"fig8","t1":60000,"t2":60000,"osf":4}}`,
	`{"kind":"experiment","experiment":{"name":"fig8","t1":16,"t2":16,"osf":100}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"Warps":1000000000}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"Tier1Pages":100000000}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"Tier2Pages":100000000}}}`,
	`{"kind":"sim","sim":{"app":"BFS","scale":{"Tier1Pages":100000000,"Tier2Pages":4096,"Oversubscription":2}}}`,
	`{"kind":"sim","sim":{"app":"BFS","scale":{"Tier1Pages":1024,"Tier2Pages":100000000,"Oversubscription":2}}}`,
	`{"kind":"sim","sim":{"app":"BFS","scale":{"Tier1Pages":1024,"Tier2Pages":4096,"Oversubscription":1000000}}}`,
	`{"kind":"sim","sim":{"app":"BFS","scale":{"Tier1Pages":60000,"Tier2Pages":60000,"Oversubscription":4}}}`,
	`{"kind":"sim","sim":{"app":"BFS","scale":{"Tier1Pages":16,"Tier2Pages":16,"Oversubscription":100}}}`,
	`{"kind":"sim","sim":{"app":"BFS","scale":{"Tier1Pages":1024,"Tier2Pages":4096}}}`,
	`{"kind":"sim","sim":{"app":"BFS","scale":{"Tier1Pages":1024,"Tier2Pages":4096,"Oversubscription":-2}}}`,
	`{"kind":"sim","sim":{"app":"BFS","scale":{"Tier1Pages":-1,"Tier2Pages":4096,"Oversubscription":2}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"PrefetchDegree":-1}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"PrefetchDegree":65}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"SampleTarget":-1}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"SampleTarget":1048577}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"SampleBatch":-4000}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"SampleBatch":1048577}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"HistorySample":-1}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"HistorySample":1}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"HistorySample":63}}}`,
	`{"kind":"sim","sim":{"app":"BFS","config":{"HistorySample":16777217}}}`,
	`{"kind":"experiment","experiment":{"name":"fig8","t1":3,"quick":true}}`,
	`{"kind":"experiment","experiment":{"name":"fig8","t2":3,"quick":true}}`,
}

// TestSubmitValidation: every malformed or out-of-range submission is
// a 400 that admits no job. Fleet sizes, dataset scales, tier sizes,
// warp counts and a sim job's prefetch and sampling knobs come from
// client JSON, so negative values and values beyond the size limits
// are refused at submit, before anything they would materialize is
// built; the stubbed executor keeps a wrongly admitted job from
// running.
func TestSubmitValidation(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	s.exec = func(j *job) ([]byte, error) { return nil, fmt.Errorf("job %s admitted", j.id) }
	defer s.Drain()
	for _, body := range invalidSubmissions {
		if rec := post(t, s, body); rec.Code != http.StatusBadRequest {
			t.Errorf("submit %s: want 400, got %d %s", body, rec.Code, rec.Body.String())
		}
	}
	s.mu.Lock()
	jobs, submitted := len(s.jobs), s.met.submitted
	s.mu.Unlock()
	if jobs != 0 || submitted != 0 {
		t.Errorf("invalid submissions admitted work: %d jobs, %d counted submissions", jobs, submitted)
	}
	if rec := get(t, s, "/v1/jobs/jdeadbeef"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job: want 404, got %d", rec.Code)
	}
	if rec := get(t, s, "/v1/jobs/jdeadbeef/result"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown result: want 404, got %d", rec.Code)
	}
}

// FuzzSubmitValidation posts arbitrary bodies through the submit
// handler with the executor stubbed. No body may panic it, each is
// refused (400) or admitted (202), and an admitted experiment or sim job
// resolves within the job size limits: tiers of at most 65536 pages, a
// finite OSF in (0, 64], a working set of at most 262144 pages and at
// most 65536 warps; a sim config's PrefetchDegree in [0, 64],
// SampleTarget and SampleBatch in [0, 1048576], and HistorySample 0 or
// in [64, 16777216]. Zero request fields resolve as the API documents
// (gmtbench's defaults, quick quarters the tiers; a sim config inherits
// the scale's tiers and the default warps).
func FuzzSubmitValidation(f *testing.F) {
	for _, body := range invalidSubmissions {
		f.Add(body)
	}
	f.Add(expBody("fig8"))
	f.Add(`{"kind":"experiment","experiment":{"name":"fig8","t1":60000,"t2":4000,"osf":4}}`)
	f.Add(`{"kind":"sim","sim":{"app":"BFS","config":{"Warps":65536}}}`)
	f.Add(`{"kind":"sim","sim":{"app":"BFS","scale":{"Tier1Pages":512,"Tier2Pages":2048,"Oversubscription":0.5}}}`)
	f.Add(`{"kind":"sim","sim":{"app":"BFS","config":{"PrefetchDegree":64,"SampleTarget":1048576,"SampleBatch":1048576,"HistorySample":64}}}`)
	f.Add(`{"kind":"sim","sim":{"app":"BFS","config":{"HistorySample":16777216}}}`)
	f.Fuzz(func(t *testing.T, body string) {
		s := New(Options{Workers: 1, QueueDepth: 1})
		s.exec = func(j *job) ([]byte, error) { return nil, fmt.Errorf("job %s admitted", j.id) }
		defer s.Drain()
		rec := post(t, s, body)
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %q: got %d %s, want 400 or 202", body, rec.Code, rec.Body.String())
		}
		var req SubmitRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("admitted %q, which does not decode: %v", body, err)
		}
		within := func(what string, t1, t2 int, osf float64) {
			if t1 > 65536 || t2 > 65536 || math.IsNaN(osf) || math.IsInf(osf, 0) ||
				osf <= 0 || osf > 64 || osf*float64(t1+t2) > 262144 {
				t.Fatalf("admitted %q with %s t1=%d t2=%d osf=%g", body, what, t1, t2, osf)
			}
		}
		switch req.Kind {
		case "experiment":
			e, sc := req.Experiment, workload.DefaultScale()
			if e.Tier1Pages > 0 {
				sc.Tier1Pages = e.Tier1Pages
			}
			if e.Tier2Pages > 0 {
				sc.Tier2Pages = e.Tier2Pages
			}
			if e.Oversubscription > 0 {
				sc.Oversubscription = e.Oversubscription
			}
			if e.Quick {
				sc.Tier1Pages /= 4
				sc.Tier2Pages /= 4
			}
			within("scale", sc.Tier1Pages, sc.Tier2Pages, sc.Oversubscription)
			if sc.Tier1Pages < 1 || sc.Tier2Pages < 1 {
				t.Fatalf("admitted %q with an empty tier: t1=%d t2=%d", body, sc.Tier1Pages, sc.Tier2Pages)
			}
		case "sim":
			sc, cfg := gmt.DefaultScale(), gmt.DefaultConfig()
			if req.Sim.Scale != nil {
				sc = *req.Sim.Scale
			}
			within("scale", sc.Tier1Pages, sc.Tier2Pages, sc.Oversubscription)
			if c := req.Sim.Config; c != nil {
				cfg = *c
				if cfg.Tier1Pages == 0 {
					cfg.Tier1Pages = sc.Tier1Pages
				}
				if cfg.Tier2Pages == 0 {
					cfg.Tier2Pages = sc.Tier2Pages
				}
				if cfg.Warps == 0 {
					cfg.Warps = gmt.DefaultConfig().Warps
				}
			}
			if cfg.Tier1Pages > 65536 || cfg.Tier2Pages > 65536 || cfg.Warps > 65536 {
				t.Fatalf("admitted %q with config tiers %d/%d and %d warps",
					body, cfg.Tier1Pages, cfg.Tier2Pages, cfg.Warps)
			}
			if cfg.PrefetchDegree < 0 || cfg.PrefetchDegree > 64 ||
				cfg.SampleTarget < 0 || cfg.SampleTarget > 1048576 ||
				cfg.SampleBatch < 0 || cfg.SampleBatch > 1048576 ||
				cfg.HistorySample != 0 && (cfg.HistorySample < 64 || cfg.HistorySample > 16777216) {
				t.Fatalf("admitted %q with PrefetchDegree %d, SampleTarget %d, SampleBatch %d, HistorySample %d",
					body, cfg.PrefetchDegree, cfg.SampleTarget, cfg.SampleBatch, cfg.HistorySample)
			}
		}
	})
}

func TestJobTimeoutFailsJob(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	realExec := s.exec
	s.exec = func(j *job) ([]byte, error) {
		if j.kind == "experiment" {
			started <- struct{}{}
			<-release
			return []byte("{}\n"), nil
		}
		return realExec(j)
	}
	defer s.Drain()

	// Occupy the lone worker so the sim job's deadline expires while it
	// waits in the queue; its executor then fails on the first ctx check
	// instead of simulating.
	if rec := post(t, s, expBody("fig8")); rec.Code != http.StatusAccepted {
		t.Fatalf("blocker: %d %s", rec.Code, rec.Body.String())
	}
	<-started
	rec := post(t, s, `{"kind":"sim","sim":{"app":"BFS"},"timeout_ms":30}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("sim submit: %d %s", rec.Code, rec.Body.String())
	}
	v := decodeStatus(t, rec)
	time.Sleep(60 * time.Millisecond)
	close(release)
	st := waitForTerminal(t, s, v.ID)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("job finished as %q (error %q), want failed with a deadline error", st.Status, st.Error)
	}
}

// waitForTerminal polls until the job is done or failed.
func waitForTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := decodeStatus(t, get(t, s, "/v1/jobs/"+id))
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}
