package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric gmtperf reports. BENCHMARK.json at the
// repository root mirrors these names, units and directions (a test
// holds the two equal), and adds the regression bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of each workload sees, measured with
// tracing off. All are defined, and never zero, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ref_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// Application and policy names that per-layer metric names embed.
var (
	traceApps = []string{
		"LavaMD", "Pathfinder", "BFS", "MultiVectorAdd", "Srad",
		"Backprop", "PageRank", "SSSP", "Hotspot", "KVServe",
	}
	runPolicies = []string{"BaM", "GMT-TierOrder", "GMT-Random", "GMT-Reuse"}
	// cpuPackages are the internal packages with a CPU-profile bucket of
	// their own; cpuBuckets adds garbage collection, networking, and the
	// rest.
	cpuPackages = []string{
		"sim", "gpu", "core", "tier", "nvme", "pcie", "xfer", "baseline", "reuse",
		"workload", "graph", "exp", "fleet", "serve", "stats",
	}
	cpuBuckets = append(append([]string(nil), cpuPackages...), "gc", "net", "other")
)

// perLayer are the metrics of the traced run (-trace 1). A workload that
// does not exercise a layer reports zero for it.
var perLayer = func() []metricDef {
	ms := func(name string) metricDef { return metricDef{name, "ms", "lower"} }
	count := func(name, better string) metricDef { return metricDef{name, "count", better} }
	defs := []metricDef{
		ms("exp.plan_ms"), ms("exp.render_ms"), ms("exp.encode_ms"), ms("exp.unattributed_ms"),
		count("exp.jobs", "lower"), count("exp.memo.sims", "lower"), count("exp.memo.hits", "higher"),
		{"exp.memo.hit_ratio", "ratio", "higher"},
		ms("workload.trace_ms"),
	}
	for _, app := range traceApps {
		defs = append(defs, ms("workload.trace_ms."+app))
	}
	defs = append(defs,
		count("workload.trace_accesses", "lower"),
		metricDef{"workload.trace_alloc_mb", "MB", "lower"},
		ms("graph.kron_ms"), ms("graph.csr_ms"),
		metricDef{"graph.alloc_mb", "MB", "lower"},
	)
	for _, p := range runPolicies {
		defs = append(defs, ms("sim.run_ms."+p))
	}
	defs = append(defs,
		ms("sim.cfg_ms"), ms("sim.prefix_ms"), ms("core.oracle_ms"), ms("baseline.hmm_ms"),
		metricDef{"sim.run_ns_per_access", "ns", "lower"},
		metricDef{"sim.alloc_mb", "MB", "lower"},
	)
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "share", "lower"})
	}
	defs = append(defs,
		count("runtime.gc_count", "lower"), ms("runtime.gc_pause_ms"),
		count("gpu.accesses", "lower"),
		metricDef{"gpu.stall_ratio", "ratio", "lower"},
		count("core.tier1_hits", "higher"), count("core.inflight_joins", "higher"),
		count("core.tier2_hits", "higher"), count("core.ssd_fills", "lower"),
		count("core.wasteful_lookups", "lower"), count("core.evictions_to_tier2", "lower"),
		count("core.evictions_to_ssd", "lower"), count("tier.tier2_evictions", "lower"),
		count("nvme.reads", "lower"), count("nvme.writes", "lower"),
		count("pcie.pages_to_gpu", "lower"), count("pcie.pages_to_host", "lower"),
		metricDef{"reuse.accuracy", "ratio", "higher"},
		ms("fleet.stream_ms"), ms("fleet.route_ms"), ms("fleet.split_ms"),
		ms("fleet.nodes_busy_ms"), ms("fleet.other_ms"), ms("fleet.encode_ms"),
		metricDef{"fleet.ns_per_request", "ns", "lower"},
		ms("fleet.sim_p99_ms"),
		ms("serve.job_p50_ms"), ms("serve.job_p90_ms"),
		ms("serve.queue_wait_ms.p50"), ms("serve.queue_wait_ms.p90"),
		ms("serve.exec_ms.sim_graph.p50"), ms("serve.exec_ms.sim_regular.p50"),
		ms("serve.exec_ms.fleet.p50"), ms("serve.exec_ms.experiment.p50"),
		ms("serve.http_ms.p50"),
		count("serve.polls_per_job", "lower"), count("serve.executions", "lower"),
		count("serve.cache_hits", "higher"), count("serve.joins", "higher"),
		count("serve.rejected", "lower"), count("serve.failed", "lower"),
		metricDef{"serve.cache_hit_ratio", "ratio", "higher"},
		metricDef{"serve.result_bytes", "bytes", "lower"},
		metricDef{"trace_overhead", "ratio", "lower"},
	)
	return defs
}()

// value is one reported metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// layers collects a run's metric values by name.
type layers map[string]value

// add accumulates one sample into a summed metric.
func (l layers) add(name string, v float64) {
	x := l[name]
	l[name] = value{x.v + v, x.n + 1}
}

// set records a metric computed from n samples.
func (l layers) set(name string, v float64, n int) { l[name] = value{v, n} }

// setPct records the nearest-rank percentile of xs, or zero with no
// samples behind it when fewer than ten samples lie beyond that rank.
func (l layers) setPct(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	if !ok {
		l[name] = value{}
		return
	}
	l[name] = value{v, len(xs)}
}

// median of xs (mean of the middle two for an even count); zero for no
// samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile reports the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of the samples at or below it. ok is
// false unless at least ten samples lie beyond it, the least a tail
// figure needs to mean anything.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// jsonMetric is one entry of the result line's "metrics" object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resolve lays got out in the order of defs: every defined metric
// appears (zero with no samples when got lacks it), and a name outside
// defs is an error, so the printed set always equals BENCHMARK.json.
func resolve(defs []metricDef, got layers) ([]value, error) {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
	}
	var unknown []string
	for name := range got {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics %v are not declared", unknown)
	}
	out := make([]value, len(defs))
	for i, d := range defs {
		out[i] = got[d.name]
	}
	return out, nil
}
