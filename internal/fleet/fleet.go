package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
)

// ResultSchema identifies the fleet result format.
const ResultSchema = "gmt-fleet/v1"

// Config is a fully resolved fleet run.
type Config struct {
	Nodes     int
	Templates []Template
	Router    RouterKind
	Stream    StreamConfig

	// Seed offsets per-node runtime seeds (node i runs with Seed+i),
	// so nodes make independent randomized tiering decisions.
	Seed int64

	// Tier2Policy is each node's Tier-2 replacement policy; empty
	// keeps the per-policy default.
	Tier2Policy tier.StorePolicy
}

// DefaultConfig is an n-node mixed fleet: 3:1 A100-like to H100-like,
// hash routing, and the default shared stream scaled to n.
func DefaultConfig(n int) Config {
	a := templates["a100"]
	a.Weight = 3
	h := templates["h100"]
	return Config{
		Nodes:     n,
		Templates: []Template{a, h},
		Router:    RouterHash,
		Stream:    DefaultStream(n),
		Seed:      1,
	}
}

// Options is the flag-shaped fleet spec shared by cmd/gmtfleet and the
// gmtd fleet job, so a served run resolves to exactly the Config — and
// therefore exactly the bytes — the CLI would produce.
type Options struct {
	Nodes       int
	Templates   string
	Router      string
	Requests    int
	Rate        float64
	Seed        int64
	Tier2Policy string
}

// Size limits on fleets specified from outside the process (CLI flags,
// a gmtd job). They sit far above the 256-node benchmark fleet, and
// keep what a run materializes up front — the whole shared stream,
// whose request IDs are int32, and per-node bookkeeping — bounded.
const (
	maxNodes    = 4096
	maxRequests = 1 << 20
)

// checkSize rejects fleets beyond the size limits.
func checkSize(nodes, requests int) error {
	if nodes > maxNodes {
		return fmt.Errorf("fleet: %d nodes exceeds the limit of %d", nodes, maxNodes)
	}
	if requests > maxRequests {
		return fmt.Errorf("fleet: %d requests exceeds the limit of %d", requests, maxRequests)
	}
	return nil
}

// FromOptions validates and resolves options into a Config. Zero
// Requests/Rate keep the node-scaled defaults; Seed seeds the node
// runtimes (the stream keeps its own fixed seed so traffic is
// comparable across seeds).
func FromOptions(o Options) (Config, error) {
	if o.Nodes < 1 {
		return Config{}, fmt.Errorf("fleet: need at least 1 node, got %d", o.Nodes)
	}
	cfg := DefaultConfig(o.Nodes)
	if o.Templates != "" {
		ts, err := ParseTemplates(o.Templates)
		if err != nil {
			return Config{}, err
		}
		cfg.Templates = ts
	}
	r, err := ParseRouter(o.Router)
	if err != nil {
		return Config{}, err
	}
	cfg.Router = r
	if o.Requests < 0 {
		return Config{}, fmt.Errorf("fleet: negative request count %d", o.Requests)
	}
	if o.Requests > 0 {
		cfg.Stream.Requests = o.Requests
	}
	if err := checkSize(cfg.Nodes, cfg.Stream.Requests); err != nil {
		return Config{}, err
	}
	if o.Rate < 0 {
		return Config{}, fmt.Errorf("fleet: negative arrival rate %v", o.Rate)
	}
	if o.Rate > 0 {
		cfg.Stream.Arrivals.Base = o.Rate
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Tier2Policy != "" {
		p, err := tier.ParseStorePolicy(o.Tier2Policy)
		if err != nil {
			return Config{}, err
		}
		cfg.Tier2Policy = p
	}
	return cfg, nil
}

// TemplateSummary aggregates the nodes of one template class.
type TemplateSummary struct {
	Name         string  `json:"name"`
	Weight       int     `json:"weight"`
	Nodes        int     `json:"nodes"`
	Requests     int     `json:"requests"`
	Tier1HitRate float64 `json:"tier1_hit_rate"`
	Tier2HitRate float64 `json:"tier2_hit_rate"`
	P99MS        float64 `json:"latency_p99_ms"`
}

// NodeResult is one node's slice of the fleet run.
type NodeResult struct {
	Node         int     `json:"node"`
	Template     string  `json:"template"`
	Requests     int     `json:"requests"`
	Tier1HitRate float64 `json:"tier1_hit_rate"`
	Tier2HitRate float64 `json:"tier2_hit_rate"`
	SSDReads     int64   `json:"ssd_reads"`
	P50MS        float64 `json:"latency_p50_ms"`
	P99MS        float64 `json:"latency_p99_ms"`
	MakespanMS   float64 `json:"makespan_ms"`
}

// Summary is the fleet-wide aggregate: counters summed across nodes,
// percentiles from the exact merge of per-node latency digests.
type Summary struct {
	Requests      int     `json:"requests"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Tier1HitRate  float64 `json:"tier1_hit_rate"`
	Tier2HitRate  float64 `json:"tier2_hit_rate"`
	SSDReads      int64   `json:"ssd_reads"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyP999MS float64 `json:"latency_p999_ms"`
	MakespanMS    float64 `json:"makespan_ms"`
}

// Result is a fleet run's deterministic output. It carries only
// simulated quantities — pool telemetry (wall time, worker skew) is
// returned separately so these bytes are identical at any -parallel N.
type Result struct {
	Schema    string            `json:"schema"`
	Nodes     int               `json:"nodes"`
	Router    string            `json:"router"`
	Seed      int64             `json:"seed"`
	Templates []TemplateSummary `json:"templates"`
	PerNode   []NodeResult      `json:"per_node"`
	Fleet     Summary           `json:"fleet"`
}

// unit is one recyclable simulation context: an {engine, runtime}
// pair, the GPU every request kernel resets and relaunches, and the
// buffer each request's accesses are emitted into. The fleet keeps one
// pool per template, each mirroring exp's suite pool, so a 256-node run
// builds at most workers-many units per template and, once they are
// warm, simulating a request allocates nothing.
type unit struct {
	eng    *sim.Engine
	rt     *core.Runtime
	gpu    *gpu.GPU
	stream gpu.SliceStream
	buf    []gpu.Access
}

// newUnit builds a unit whose runtime and GPU start with the given
// shapes.
func newUnit(ccfg core.Config, gcfg gpu.Config) *unit {
	eng := sim.NewEngine()
	u := &unit{eng: eng, rt: core.NewRuntime(eng, ccfg)}
	u.gpu = gpu.New(eng, gcfg, &u.stream, u.rt)
	return u
}

// Run executes the fleet: generate the shared stream, route it, and
// simulate every node on the exp worker pool, each job writing its
// outcome into a node-indexed slot so aggregation order — and thus
// every output byte — is independent of worker count and scheduling.
// The clock is pool telemetry only (nil leaves timings zero); it never
// reaches a simulation.
//
//gmt:blocking
func Run(ctx context.Context, cfg Config, workers int, clock func() int64) (Result, exp.PoolReport, error) {
	if cfg.Nodes < 1 {
		return Result{}, exp.PoolReport{}, fmt.Errorf("fleet: need at least 1 node, got %d", cfg.Nodes)
	}
	if len(cfg.Templates) == 0 {
		return Result{}, exp.PoolReport{}, fmt.Errorf("fleet: no templates")
	}

	reqs := GenerateStream(cfg.Stream)
	tplIdx := ExpandTemplates(cfg.Templates, cfg.Nodes)
	weights := make([]int, cfg.Nodes)
	for i, ti := range tplIdx {
		weights[i] = cfg.Templates[ti].Weight
	}
	assign := Assign(cfg.Router, weights, reqs)
	perNode := Split(reqs, assign, cfg.Nodes)

	// Units are pooled per template, so a Reset never changes a unit's
	// shape: its tiers, drive and GPU stay the template's, and only the
	// run state is reset.
	var (
		mu    sync.Mutex
		pools = make([][]*unit, len(cfg.Templates))
	)
	acquire := func(ti int, ccfg core.Config, gcfg gpu.Config) *unit {
		mu.Lock()
		var u *unit
		if n := len(pools[ti]); n > 0 {
			u = pools[ti][n-1]
			pools[ti][n-1] = nil
			pools[ti] = pools[ti][:n-1]
		}
		mu.Unlock()
		if u == nil {
			return newUnit(ccfg, gcfg)
		}
		u.rt.Reset(ccfg)
		return u
	}
	release := func(ti int, u *unit) {
		mu.Lock()
		pools[ti] = append(pools[ti], u)
		mu.Unlock()
	}

	outcomes := make([]nodeOutcome, cfg.Nodes)
	jobs := make([]exp.Job, cfg.Nodes)
	for i := range jobs {
		i, ti := i, tplIdx[i]
		tpl := cfg.Templates[ti]
		jobs[i] = exp.Job{
			Key: fmt.Sprintf("node-%d", i),
			Run: func() {
				ccfg := tpl.coreConfig(cfg.Seed+int64(i), cfg.Tier2Policy)
				ccfg.FootprintPages = int(nodeFootprint(tpl, cfg.Stream, perNode[i]))
				u := acquire(ti, ccfg, tpl.gpuConfig())
				outcomes[i] = simulateNode(u, tpl, cfg.Stream, perNode[i])
				release(ti, u)
			},
		}
	}
	prep, err := exp.RunJobs(ctx, jobs, workers, clock)
	if err != nil {
		return Result{}, prep, err
	}
	return aggregate(cfg, tplIdx, outcomes), prep, nil
}

// aggregate folds per-node outcomes — in node-index order — into the
// fleet result.
func aggregate(cfg Config, tplIdx []int, outcomes []nodeOutcome) Result {
	res := Result{
		Schema: ResultSchema,
		Nodes:  cfg.Nodes,
		Router: string(cfg.Router),
		Seed:   cfg.Seed,
	}
	type tplAgg struct {
		nodes, requests int
		run             stats.Run
		digests         []stats.Digest
	}
	aggs := make([]tplAgg, len(cfg.Templates))
	var (
		fleetRun stats.Run
		digests  []stats.Digest
		makespan sim.Time
		requests int
	)
	for i, o := range outcomes {
		addRun(&fleetRun, o.run)
		digests = append(digests, o.latency)
		requests += o.requests
		if o.lastDone > makespan {
			makespan = o.lastDone
		}
		a := &aggs[tplIdx[i]]
		a.nodes++
		a.requests += o.requests
		addRun(&a.run, o.run)
		a.digests = append(a.digests, o.latency)

		d := o.latency
		res.PerNode = append(res.PerNode, NodeResult{
			Node:         i,
			Template:     cfg.Templates[tplIdx[i]].Name,
			Requests:     o.requests,
			Tier1HitRate: hitRate(o.run),
			Tier2HitRate: o.run.Tier2HitRate(),
			SSDReads:     o.run.SSDReads,
			P50MS:        ms(d.Quantile(0.50)),
			P99MS:        ms(d.Quantile(0.99)),
			MakespanMS:   ms(o.lastDone),
		})
	}
	for ti, t := range cfg.Templates {
		a := aggs[ti]
		d := stats.MergeDigests(a.digests...)
		res.Templates = append(res.Templates, TemplateSummary{
			Name:         t.Name,
			Weight:       t.Weight,
			Nodes:        a.nodes,
			Requests:     a.requests,
			Tier1HitRate: hitRate(a.run),
			Tier2HitRate: a.run.Tier2HitRate(),
			P99MS:        ms(d.Quantile(0.99)),
		})
	}
	fleet := stats.MergeDigests(digests...)
	res.Fleet = Summary{
		Requests:      requests,
		ThroughputRPS: rps(requests, makespan),
		Tier1HitRate:  hitRate(fleetRun),
		Tier2HitRate:  fleetRun.Tier2HitRate(),
		SSDReads:      fleetRun.SSDReads,
		LatencyP50MS:  ms(fleet.Quantile(0.50)),
		LatencyP99MS:  ms(fleet.Quantile(0.99)),
		LatencyP999MS: ms(fleet.Quantile(0.999)),
		MakespanMS:    ms(makespan),
	}
	return res
}

// addRun accumulates the counters fleet aggregation consumes.
func addRun(dst *stats.Run, src stats.Run) {
	dst.Accesses += src.Accesses
	dst.Tier1Hits += src.Tier1Hits
	dst.Tier2Hits += src.Tier2Hits
	dst.SSDFills += src.SSDFills
	dst.InFlightJoins += src.InFlightJoins
	dst.SSDReads += src.SSDReads
	dst.SSDWrites += src.SSDWrites
	dst.WarpComputeNS += src.WarpComputeNS
	dst.WarpStallNS += src.WarpStallNS
}

// hitRate is the Tier-1 hit fraction of all accesses.
func hitRate(r stats.Run) float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Tier1Hits) / float64(r.Accesses)
}

func ms(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

func rps(requests int, makespan sim.Time) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(requests) / (float64(makespan) / float64(sim.Second))
}

// Render formats the fleet summary and per-template breakdown as the
// CLI's human-readable tables. Per-node detail stays JSON-only.
func Render(res Result) string {
	var b strings.Builder
	sum := stats.NewTable(
		fmt.Sprintf("Fleet: %d nodes, %s routing, seed %d", res.Nodes, res.Router, res.Seed),
		"Requests", "Throughput", "T1 hit", "T2 hit", "p50", "p99", "p99.9", "Makespan")
	f := res.Fleet
	sum.AddRow(
		fmt.Sprintf("%d", f.Requests),
		fmt.Sprintf("%.1f req/s", f.ThroughputRPS),
		stats.Pct(f.Tier1HitRate),
		stats.Pct(f.Tier2HitRate),
		fmt.Sprintf("%.2f ms", f.LatencyP50MS),
		fmt.Sprintf("%.2f ms", f.LatencyP99MS),
		fmt.Sprintf("%.2f ms", f.LatencyP999MS),
		fmt.Sprintf("%.1f ms", f.MakespanMS),
	)
	b.WriteString(sum.Render())
	b.WriteString("\n")

	tpl := stats.NewTable("Per-template breakdown",
		"Template", "Weight", "Nodes", "Requests", "T1 hit", "T2 hit", "p99")
	for _, t := range res.Templates {
		tpl.AddRow(
			t.Name,
			fmt.Sprintf("%d", t.Weight),
			fmt.Sprintf("%d", t.Nodes),
			fmt.Sprintf("%d", t.Requests),
			stats.Pct(t.Tier1HitRate),
			stats.Pct(t.Tier2HitRate),
			fmt.Sprintf("%.2f ms", t.P99MS),
		)
	}
	b.WriteString(tpl.Render())
	return b.String()
}

// EncodeResult writes the canonical JSON encoding — the exact bytes
// contract shared by cmd/gmtfleet and the gmtd fleet job.
func EncodeResult(w io.Writer, res Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
