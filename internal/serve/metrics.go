package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
)

// metrics is the serving-layer instrumentation, guarded by Server.mu.
// Rendering is hand-rolled Prometheus text exposition (the repo is
// stdlib-only); series are written in a fixed order so /metrics output
// is deterministic.
type metrics struct {
	submitted        int64
	done             int64
	failed           int64
	rejectedFull     int64
	rejectedDraining int64
	cacheHits        int64
	cacheMisses      int64
	joins            int64
	simRuns          int64 // standalone sim-kind executions
	evictedSims      int64 // simulations counted by suites evicted from Server.suites

	// ewma tracks recent job latency (ns) for Retry-After estimates;
	// coldNS is the configured estimate served before the first sample
	// (Options.ColdStartLatency).
	ewma    float64
	coldNS  float64
	samples int64

	hist histogram
}

// observe records one completed job's latency (seconds).
func (m *metrics) observe(seconds float64) {
	ns := seconds * 1e9
	if m.samples == 0 {
		m.ewma = ns
	} else {
		m.ewma = 0.8*m.ewma + 0.2*ns
	}
	m.samples++
	m.hist.observe(seconds)
}

// ewmaNS reports the smoothed per-job latency in nanoseconds. Before
// any job has completed it reports the configured cold-start estimate,
// so Retry-After under a cold full queue reflects the real backlog
// instead of collapsing to the 1-second floor.
func (m *metrics) ewmaNS() float64 {
	if m.samples == 0 {
		return m.coldNS
	}
	return m.ewma
}

// histogram is a fixed-bucket Prometheus histogram of job latency in
// seconds.
type histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []int64   // len(bounds)+1, cumulative rendering happens at write time
	sum    float64
	count  int64
}

func newHistogram() histogram {
	return histogram{
		bounds: []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 10, 60},
		counts: make([]int64, 9),
	}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// handleMetrics is GET /metrics: Prometheus text exposition format.
// The body is rendered into a buffer under the server lock (the
// histogram's slices must not be read while a worker observes into
// them), then written out.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sims := s.simulationsTotal()
	var buf bytes.Buffer
	s.mu.Lock()
	m := &s.met
	queued := len(s.queue)
	inflight := s.inflight
	cached := len(s.doneOrder)
	roots, suites := len(s.roots.entries), len(s.suites.entries)

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("gmtd_queue_depth", "Admitted jobs waiting for a worker.", int64(queued))
	gauge("gmtd_jobs_inflight", "Jobs currently executing.", int64(inflight))
	gauge("gmtd_cache_entries", "Finished jobs retained as the result cache.", int64(cached))
	gauge("gmtd_data_roots", "Dataset scales whose workloads and traces are held for reuse.", int64(roots))
	gauge("gmtd_suites", "Per-seed experiment suites held with their result memos.", int64(suites))
	counter("gmtd_jobs_submitted_total", "Submissions received, including rejected ones.", m.submitted)
	counter("gmtd_jobs_done_total", "Jobs completed successfully.", m.done)
	counter("gmtd_jobs_failed_total", "Jobs that finished with an error.", m.failed)
	fmt.Fprintf(&buf, "# HELP gmtd_jobs_rejected_total Submissions turned away at admission.\n")
	fmt.Fprintf(&buf, "# TYPE gmtd_jobs_rejected_total counter\n")
	fmt.Fprintf(&buf, "gmtd_jobs_rejected_total{reason=\"queue_full\"} %d\n", m.rejectedFull)
	fmt.Fprintf(&buf, "gmtd_jobs_rejected_total{reason=\"draining\"} %d\n", m.rejectedDraining)
	counter("gmtd_cache_hits_total", "Submissions served from the result cache.", m.cacheHits)
	counter("gmtd_cache_misses_total", "Submissions that started a new execution.", m.cacheMisses)
	counter("gmtd_singleflight_joins_total", "Submissions collapsed onto an identical in-flight job.", m.joins)
	counter("gmtd_simulations_total", "Simulations executed across all suites and sim jobs.", sims)

	fmt.Fprintf(&buf, "# HELP gmtd_job_duration_seconds Job execution latency.\n")
	fmt.Fprintf(&buf, "# TYPE gmtd_job_duration_seconds histogram\n")
	cum := int64(0)
	for i, b := range m.hist.bounds {
		cum += m.hist.counts[i]
		fmt.Fprintf(&buf, "gmtd_job_duration_seconds_bucket{le=\"%s\"} %d\n",
			strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	cum += m.hist.counts[len(m.hist.bounds)]
	fmt.Fprintf(&buf, "gmtd_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&buf, "gmtd_job_duration_seconds_sum %g\n", m.hist.sum)
	fmt.Fprintf(&buf, "gmtd_job_duration_seconds_count %d\n", m.hist.count)
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(buf.Bytes())
}
