package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gmtsim/gmt"
	"github.com/gmtsim/gmt/internal/serve"
)

// The gmtd-mixed load shape: a closed loop of gmtdClients clients (one
// per CPU of the reference host) sharing one sequence of submissions,
// each submitting, polling every pollInterval, and fetching the result
// before taking the next.
const (
	gmtdSubmissions = 100
	gmtdClients     = 2
	pollInterval    = 2 * time.Millisecond
	jobTimeout      = 60 * time.Second
)

// simApps are the sim-job applications: the paper's nine plus KVServe.
var simApps = append(gmt.WorkloadNames(), "KVServe")

// graphApps rebuild the Kronecker graph on every sim job.
var graphApps = map[string]bool{"BFS": true, "PageRank": true, "SSSP": true}

var simPolicies = []gmt.Policy{gmt.BaM, gmt.TierOrder, gmt.Random, gmt.Reuse, gmt.HMM}

// submission is one POST /v1/jobs body; the body doubles as the job's
// key in the output digest.
type submission struct {
	body  []byte
	class string // sim_graph, sim_regular, fleet or experiment
}

func newSubmission(class string, req serve.SubmitRequest) submission {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of plain fields always marshals
	}
	return submission{body: body, class: class}
}

// gmtdSequence draws n submissions from seed, in seeded order: n/20
// quick fig9 experiments (seed 1–2), n/10 16-node fleets (seed 1–8), and
// the rest quick-scale sim jobs split evenly over the ten apps, each
// with a policy from five and a seed from 1–4 (20 combinations), and
// zero tier sizes so the runtime inherits the scale. Every draw is
// uniform over its options (see drawUniform); a repeat is served from
// the result cache or joined onto the in-flight run.
func gmtdSequence(seed int64, n int) []submission {
	rng := rand.New(rand.NewSource(seed))
	nExp, nFleet := n/20, n/10
	nSim := n - nExp - nFleet

	var exps []submission
	for s := int64(1); s <= 2; s++ {
		exps = append(exps, newSubmission("experiment", serve.SubmitRequest{Kind: "experiment",
			Experiment: &serve.ExperimentRequest{Name: "fig9", Quick: true, Seed: s}}))
	}
	subs := drawUniform(rng, exps, nExp)

	var fleets []submission
	for s := int64(1); s <= 8; s++ {
		fleets = append(fleets, newSubmission("fleet", serve.SubmitRequest{Kind: "fleet",
			Fleet: &serve.FleetRequest{Nodes: 16, Seed: s}}))
	}
	subs = append(subs, drawUniform(rng, fleets, nFleet)...)

	scale := gmt.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2}
	for i, app := range simApps {
		class := "sim_regular"
		if graphApps[app] {
			class = "sim_graph"
		}
		var combos []submission
		for _, p := range simPolicies {
			for s := int64(1); s <= 4; s++ {
				combos = append(combos, newSubmission(class, serve.SubmitRequest{Kind: "sim",
					Sim: &serve.SimRequest{App: app, Scale: &scale, Config: &gmt.Config{Policy: p, Seed: s}}}))
			}
		}
		count := nSim / len(simApps)
		if i < nSim%len(simApps) {
			count++
		}
		subs = append(subs, drawUniform(rng, combos, count)...)
	}
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs
}

// drawUniform draws m of the options, each draw uniform over them, with
// the number of distinct options drawn fixed at its expectation for m
// independent draws, N(1-(1-1/N)^m), rounded: a random subset of that
// size appears once each, and the remaining draws repeat members of the
// subset uniformly. For a sim app's 8 or 9 draws over 20 combinations
// that is 7 distinct jobs. Independent draws would vary the number of
// executions, and with it the work that wall_s and alloc_mb measure,
// from seed to seed; fixing it leaves the seed to choose which jobs run,
// not how many.
func drawUniform(rng *rand.Rand, options []submission, m int) []submission {
	n := float64(len(options))
	k := min(int(math.Round(n*(1-math.Pow(1-1/n, float64(m))))), m)
	subset := make([]submission, 0, k)
	for _, i := range rng.Perm(len(options))[:k] {
		subset = append(subset, options[i])
	}
	out := append([]submission(nil), subset...)
	for len(out) < m {
		out = append(out, subset[rng.Intn(k)])
	}
	return out
}

// gmtdBench runs the seed's sequence against a fresh server per pass.
func gmtdBench(seed int64, n int) bench {
	subs := gmtdSequence(seed, n)
	st := &serveStats{exec: map[string][]float64{}, scraped: map[string]float64{}}
	return bench{
		pass:      func(layers) (passResult, error) { return gmtdPass(subs, st) },
		summarize: st.report,
		ops:       len(subs),
	}
}

// jobOutcome is what one client saw of one submission. Times are
// milliseconds.
type jobOutcome struct {
	payload []byte
	err     error
	// executed is set when the submission started a new execution
	// (HTTP 202) rather than hitting the cache or joining a run.
	executed             bool
	latency, queue, exec float64
	polls                int
	httpMS               []float64
}

// gmtdPass serves one sequence from an in-process serve.Server (two
// workers, default queue and cache) behind httptest and returns the
// digest of every job's result payload, sorted by job key.
func gmtdPass(subs []submission, st *serveStats) (passResult, error) {
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start)) }
	srv := serve.New(serve.Options{Workers: 2, Clock: clock})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()
	c := client{http: ts.Client(), base: ts.URL, clock: clock}

	outs := make([]jobOutcome, len(subs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < gmtdClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(subs) {
					return
				}
				outs[k] = c.do(subs[k])
			}
		}()
	}
	wg.Wait()

	var scraped []byte
	if code, err := c.roundTrip(nil, http.MethodGet, "/metrics", nil, &scraped); err != nil || code != http.StatusOK {
		return passResult{}, fmt.Errorf("scraping /metrics: HTTP %d: %v", code, err)
	}

	var res passResult
	payloads := map[string][]byte{}
	for k := range outs {
		o, key := &outs[k], string(subs[k].body)
		if p, seen := payloads[key]; o.err == nil && seen && !bytes.Equal(p, o.payload) {
			o.err = fmt.Errorf("result differs from an earlier result for the same job")
		}
		if o.err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "gmtperf: gmtd job %s: %v\n", key, o.err)
			continue
		}
		payloads[key] = o.payload
	}
	keys := make([]string, 0, len(payloads))
	for key := range payloads {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, key := range keys {
		fmt.Fprintf(h, "%d\n%s%d\n", len(key), key, len(payloads[key]))
		h.Write(payloads[key])
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	st.add(subs, outs, parseMetrics(string(scraped)))
	return res, nil
}

// client is one closed-loop caller of the daemon's HTTP API.
type client struct {
	http  *http.Client
	base  string
	clock func() int64
}

// do submits s, polls until the job finishes, and fetches the result.
// Latency runs from the start of the submit to the end of the fetch,
// with the poll wait replaced by the server's finished_ns on the shared
// clock, so the poll interval does not quantize it.
func (c client) do(s submission) (o jobOutcome) {
	t0 := c.clock()
	var st serve.JobStatus
	code, err := c.roundTrip(&o, http.MethodPost, "/v1/jobs", s.body, &st)
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d", code)
	}
	if err != nil {
		o.err = err
		return o
	}
	submitted := c.clock()
	o.executed = code == http.StatusAccepted
	for st.Status == serve.StatusQueued || st.Status == serve.StatusRunning {
		if c.clock()-t0 > int64(jobTimeout) {
			o.err = fmt.Errorf("job %s still %s after %v", st.ID, st.Status, jobTimeout)
			return o
		}
		time.Sleep(pollInterval)
		o.polls++
		if code, err = c.roundTrip(&o, http.MethodGet, "/v1/jobs/"+st.ID, nil, &st); err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d", code)
		}
		if err != nil {
			o.err = err
			return o
		}
	}
	if st.Status != serve.StatusDone {
		o.err = fmt.Errorf("job %s %s: %s", st.ID, st.Status, st.Error)
		return o
	}
	fetch := c.clock()
	if code, err = c.roundTrip(&o, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, &o.payload); err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", code)
	}
	if err != nil {
		o.err = err
		return o
	}
	finished := max(st.FinishedNS, submitted)
	o.latency = float64(finished-t0+c.clock()-fetch) / 1e6
	if o.executed {
		o.queue = float64(st.StartedNS-st.SubmittedNS) / 1e6
		o.exec = float64(st.FinishedNS-st.StartedNS) / 1e6
	}
	return o
}

// roundTrip sends one request and reads the whole response into out: raw
// bytes for a *[]byte, decoded JSON for anything else on a 2xx status.
// o, when non-nil, records the round trip's duration.
func (c client) roundTrip(o *jobOutcome, method, path string, body []byte, out interface{}) (int, error) {
	t := c.clock()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if o != nil {
		o.httpMS = append(o.httpMS, float64(c.clock()-t)/1e6)
	}
	if err != nil {
		return resp.StatusCode, err
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
	} else if resp.StatusCode/100 == 2 {
		err = json.Unmarshal(data, out)
	}
	return resp.StatusCode, err
}

// parseMetrics reads the Prometheus text exposition into name → value,
// summing the series of a labeled metric.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// serveStats accumulates the serving layer's numbers over every
// sequence of a run.
type serveStats struct {
	sequences, submissions, polls, resultBytes int
	latency, queue, http                       []float64
	exec                                       map[string][]float64 // by submission class
	scraped                                    map[string]float64   // /metrics, summed
}

func (st *serveStats) add(subs []submission, outs []jobOutcome, scraped map[string]float64) {
	st.sequences++
	st.submissions += len(subs)
	for k, o := range outs {
		st.polls += o.polls
		st.http = append(st.http, o.httpMS...)
		if o.err != nil {
			continue
		}
		st.resultBytes += len(o.payload)
		st.latency = append(st.latency, o.latency)
		if o.executed {
			st.queue = append(st.queue, o.queue)
			st.exec[subs[k].class] = append(st.exec[subs[k].class], o.exec)
		}
	}
	for _, name := range []string{"gmtd_cache_misses_total", "gmtd_cache_hits_total",
		"gmtd_singleflight_joins_total", "gmtd_jobs_rejected_total", "gmtd_jobs_failed_total"} {
		st.scraped[name] += scraped[name]
	}
}

// report writes the serve.* metrics; counts are per sequence.
func (st *serveStats) report(lay layers) {
	if st.sequences == 0 {
		return
	}
	lay.set("serve.job_p50_ms", median(st.latency), len(st.latency))
	lay.setPct("serve.job_p90_ms", st.latency, 90)
	lay.set("serve.queue_wait_ms.p50", median(st.queue), len(st.queue))
	lay.setPct("serve.queue_wait_ms.p90", st.queue, 90)
	for _, class := range []string{"sim_graph", "sim_regular", "fleet", "experiment"} {
		lay.set("serve.exec_ms."+class+".p50", median(st.exec[class]), len(st.exec[class]))
	}
	lay.set("serve.http_ms.p50", median(st.http), len(st.http))
	lay.set("serve.polls_per_job", float64(st.polls)/float64(st.submissions), st.submissions)
	perSeq := func(name, metric string) {
		lay.set(name, st.scraped[metric]/float64(st.sequences), st.sequences)
	}
	perSeq("serve.executions", "gmtd_cache_misses_total")
	perSeq("serve.cache_hits", "gmtd_cache_hits_total")
	perSeq("serve.joins", "gmtd_singleflight_joins_total")
	perSeq("serve.rejected", "gmtd_jobs_rejected_total")
	perSeq("serve.failed", "gmtd_jobs_failed_total")
	if total := st.scraped["gmtd_cache_misses_total"] + st.scraped["gmtd_cache_hits_total"] +
		st.scraped["gmtd_singleflight_joins_total"]; total > 0 {
		lay.set("serve.cache_hit_ratio", st.scraped["gmtd_cache_hits_total"]/total, st.submissions)
	}
	lay.set("serve.result_bytes", float64(st.resultBytes)/float64(st.sequences), st.sequences)
}
