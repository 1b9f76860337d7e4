// Package serve is the serving core of gmtd: a long-running HTTP/JSON
// front end over the deterministic simulation engine. It owns the
// pieces a one-shot CLI never needs — admission control over a bounded
// job queue, a content-addressed result cache with singleflight
// collapsing, Prometheus-text metrics, and graceful drain — while the
// simulations themselves run through the same internal/exp suite and
// public gmt API the CLIs use, so a served result is byte-identical to
// the CLI's output for the same request.
//
// Concurrency model (the "serving boundary", HACKING.md): goroutines
// here are HTTP handlers and the worker pool; everything below the
// exp.Suite memo stays single-goroutine per job. Wall-clock time enters
// only through the injected Options.Clock — the norealtime analyzer
// covers this package, and every latency in it is a delta of that
// monotonic clock, never time.Now.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/gmtsim/gmt"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/workload"
)

// Options configures a Server. Zero values take the documented
// defaults.
type Options struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// JobParallelism is the exp pool worker count each experiment job
	// may use internally (default 1; the daemon's parallelism normally
	// comes from running several jobs, not from one wide job).
	JobParallelism int
	// CacheEntries bounds the completed jobs retained as the result
	// cache; the oldest finished jobs are evicted first (default 256).
	CacheEntries int
	// ColdStartLatency seeds the per-job latency estimate used for
	// Retry-After until the first job completes (default 2s). Without
	// it, a cold daemon with a full queue would tell every rejected
	// client to retry in 1 second — a synchronized stampede against a
	// queue that cannot possibly have drained.
	ColdStartLatency time.Duration
	// Clock is a monotonic nanosecond clock injected by the binary
	// (this package is banned from reading wall time). A nil clock
	// leaves all timings zero, which tests use.
	Clock func() int64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.JobParallelism <= 0 {
		o.JobParallelism = 1
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.ColdStartLatency <= 0 {
		o.ColdStartLatency = 2 * time.Second
	}
	if o.Clock == nil {
		o.Clock = func() int64 { return 0 }
	}
	return o
}

// Server is the serving state machine: an http.Handler plus the worker
// pool behind it. Create with New, shut down with Drain.
type Server struct {
	opts Options
	mux  *http.ServeMux
	wg   sync.WaitGroup

	// exec runs one admitted job; tests stub it to control timing.
	exec func(j *job) ([]byte, error)

	mu        sync.Mutex
	queue     chan *job
	jobs      map[string]*job // by id (ids are derived from keys)
	byKey     map[string]*job
	doneOrder []string     // ids in completion order, for cache eviction
	roots     suiteLRU     // data roots, by dataset scale (dataRootLocked)
	suites    suiteLRU     // per-seed experiment suites (suiteFor)
	runners   []*simRunner // idle sim runners, at most one per worker
	draining  bool
	inflight  int
	met       metrics
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	s := &Server{
		opts:   opts.withDefaults(),
		jobs:   make(map[string]*job),
		byKey:  make(map[string]*job),
		roots:  suiteLRU{max: maxDataRoots},
		suites: suiteLRU{max: maxSuites},
	}
	s.queue = make(chan *job, s.opts.QueueDepth)
	s.exec = func(j *job) ([]byte, error) { return j.run(j.ctx) }
	s.met.hist = newHistogram()
	s.met.coldNS = float64(s.opts.ColdStartLatency.Nanoseconds())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain gracefully shuts the worker pool down: admission stops
// (submissions are rejected with 503), every already-admitted job —
// queued or running — is executed to completion, and Drain returns once
// the pool is idle. Poll, result, health, and metrics endpoints keep
// answering; the binary shuts the HTTP listener down after Drain so
// clients can still fetch the results of drained jobs. Idempotent and
// safe to call concurrently.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// worker executes admitted jobs until the queue is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		j.status = StatusRunning
		j.startedNS = s.opts.Clock()
		s.inflight++
		s.mu.Unlock()

		payload, err := s.execRecover(j)

		s.mu.Lock()
		j.payload = payload
		j.finishedNS = s.opts.Clock()
		if err != nil {
			j.status = StatusFailed
			j.err = err.Error()
			s.met.failed++
		} else {
			j.status = StatusDone
			s.met.done++
		}
		s.inflight--
		s.met.observe(float64(j.finishedNS-j.startedNS) / 1e9)
		s.doneOrder = append(s.doneOrder, j.id)
		s.evictLocked()
		s.mu.Unlock()
		j.cancel()
	}
}

// execRecover runs one job through s.exec, turning a panic into the
// job's error: one bad simulation fails its job, not the daemon.
func (s *Server) execRecover(j *job) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			payload, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	return s.exec(j)
}

// evictLocked enforces the CacheEntries bound on retained finished
// jobs. Called with s.mu held.
func (s *Server) evictLocked() {
	for len(s.doneOrder) > s.opts.CacheEntries {
		id := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if j, ok := s.jobs[id]; ok {
			delete(s.jobs, id)
			delete(s.byKey, j.key)
		}
	}
}

// The per-scale maps keep this many most recently used entries. A data
// root holds a scale's workloads (the Kronecker graph among them) and
// its trace memo; a per-seed suite holds its results memo and recycled
// runtimes. Both are keyed on client-chosen scales and seeds, so both
// must be bounded.
const (
	maxDataRoots = 4
	maxSuites    = 8
)

// dataRootLocked returns the data root for one dataset scale (tier
// sizes, oversubscription, dataset seed), creating it on first use: an
// exp.Suite that no job simulates on, whose workloads and trace memo
// every sim job and per-seed experiment suite at that scale shares, so
// each dataset is built once per scale rather than once per job.
// Called with s.mu held.
func (s *Server) dataRootLocked(sc workload.Scale) *exp.Suite {
	root, _ := s.roots.get(fmt.Sprintf("%+v", sc), func() *exp.Suite { return exp.NewSuite(sc) })
	return root
}

// suiteFor returns the shared experiment suite for one (scale, seed)
// pair, creating it from the scale's data root on first use. It holds
// the result memo that makes warm experiment requests cheap; the
// datasets under it belong to the data root. An evicted suite's
// simulations stay counted in gmtd_simulations_total (those a job still
// running on it executes after eviction are not), and a later request
// for it rebuilds it — byte-identically, since results are
// deterministic.
func (s *Server) suiteFor(sc workload.Scale, seed int64) *exp.Suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	root := s.dataRootLocked(sc)
	suite, evicted := s.suites.get(fmt.Sprintf("%+v,seed=%d", sc, seed), func() *exp.Suite {
		return root.WithSeed(seed)
	})
	if evicted != nil {
		sims, _ := evicted.Counters()
		s.met.evictedSims += sims
	}
	return suite
}

// simRunner runs sim jobs: a gmt.Runner, whose engine and runtime a
// job recycles, and the buffer the job copies its data root's trace
// into. Both keep the capacity of the largest job they ran.
type simRunner struct {
	gmt.Runner
	trace []gmt.Access
}

// acquireRunner takes an idle runner from the pool, or builds one.
func (s *Server) acquireRunner() *simRunner {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.runners)
	if n == 0 {
		return new(simRunner)
	}
	r := s.runners[n-1]
	s.runners[n-1] = nil
	s.runners = s.runners[:n-1]
	return r
}

// releaseRunnerLocked returns a runner whose job completed to the pool,
// which holds at most one runner per worker. A job that panics never
// returns its runner, so the pool only holds runners that finished a
// run. Called with s.mu held.
func (s *Server) releaseRunnerLocked(r *simRunner) {
	if len(s.runners) < s.opts.Workers {
		s.runners = append(s.runners, r)
	}
}

// simulationsTotal sums executed simulations across every suite, the
// evicted ones, and the standalone sim-kind runs. Warm (cached)
// requests leave it unchanged — the metric the cache tests pin. The sum
// is taken under s.mu, so an eviction moves a suite's count from the
// live suites into evictedSims without the total ever decreasing.
func (s *Server) simulationsTotal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.met.simRuns + s.met.evictedSims
	for _, e := range s.suites.entries {
		sims, _ := e.suite.Counters()
		total += sims
	}
	return total
}

// suiteLRU is a small most-recently-used map of suites: at most max
// entries, the least recently used evicted first.
type suiteLRU struct {
	max     int
	entries []suiteEntry // least recently used first
}

type suiteEntry struct {
	key   string
	suite *exp.Suite
}

// get returns the suite under key, creating it with mk on a miss, and
// marks it most recently used. evicted is the suite dropped to make
// room, if any.
func (c *suiteLRU) get(key string, mk func() *exp.Suite) (suite, evicted *exp.Suite) {
	for i, e := range c.entries {
		if e.key == key {
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = e
			return e.suite, nil
		}
	}
	if len(c.entries) == c.max {
		evicted = c.entries[0].suite
		c.entries = append(c.entries[:0], c.entries[1:]...)
	}
	c.entries = append(c.entries, suiteEntry{key: key, suite: mk()})
	return c.entries[len(c.entries)-1].suite, evicted
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encode errors are unreportable here: the status line is committed.
	_ = enc.Encode(v)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}
