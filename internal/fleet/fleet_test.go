package fleet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/raceflag"
)

// TestStreamSplitDeterministic pins the seeded-stream splitting
// contract: the shared stream is a pure function of its config, and
// per-node sub-streams are byte-identical however many times the
// stream is regenerated and re-routed.
func TestStreamSplitDeterministic(t *testing.T) {
	cfg := DefaultStream(8)
	a := GenerateStream(cfg)
	b := GenerateStream(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenerateStream is not deterministic")
	}
	weights := []int{3, 1, 3, 1, 3, 1, 3, 1}
	for _, kind := range []RouterKind{RouterHash, RouterWRR} {
		s1 := Split(a, Assign(kind, weights, a), len(weights))
		s2 := Split(b, Assign(kind, weights, b), len(weights))
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: sub-streams differ across regenerations", kind)
		}
		total := 0
		for _, s := range s1 {
			total += len(s)
		}
		if total != len(a) {
			t.Errorf("%s: split lost requests: %d != %d", kind, total, len(a))
		}
		// Arrival order must be preserved within each node.
		for n, s := range s1 {
			for i := 1; i < len(s); i++ {
				if s[i].Arrive < s[i-1].Arrive {
					t.Errorf("%s: node %d sub-stream out of arrival order", kind, n)
					break
				}
			}
		}
	}
}

// TestHashRouterStability pins consistent hashing's defining property:
// growing the fleet from n to n+1 nodes only moves requests TO the new
// node — no request shuffles between surviving nodes.
func TestHashRouterStability(t *testing.T) {
	reqs := GenerateStream(DefaultStream(16))
	weights := make([]int, 16)
	for i := range weights {
		weights[i] = 1 + i%3
	}
	before := Assign(RouterHash, weights, reqs)
	after := Assign(RouterHash, append(append([]int{}, weights...), 2), reqs)
	moved := 0
	for i := range reqs {
		if after[i] != before[i] {
			if after[i] != len(weights) {
				t.Fatalf("request %d moved between old nodes: %d -> %d", i, before[i], after[i])
			}
			moved++
		}
	}
	if moved == 0 {
		t.Error("no requests moved to the new node (suspicious for 384 requests)")
	}
}

// TestWRRProportional pins the weighted-round-robin split: node load
// tracks weight share exactly (within one cycle's rounding).
func TestWRRProportional(t *testing.T) {
	reqs := GenerateStream(DefaultStream(4))
	weights := []int{3, 1, 3, 1}
	counts := make([]int, len(weights))
	for _, n := range Assign(RouterWRR, weights, reqs) {
		counts[n]++
	}
	total := len(reqs)
	for i, w := range weights {
		want := float64(total) * float64(w) / 8
		if diff := float64(counts[i]) - want; diff > 1 || diff < -1 {
			t.Errorf("node %d: got %d requests, want %.1f±1", i, counts[i], want)
		}
	}
}

// TestTemplateExpansion pins smooth WRR interleaving for the default
// 3:1 mix.
func TestTemplateExpansion(t *testing.T) {
	cfg := DefaultConfig(8)
	got := ExpandTemplates(cfg.Templates, 8)
	want := []int{0, 0, 1, 0, 0, 0, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExpandTemplates = %v, want %v", got, want)
	}
}

func TestParseTemplates(t *testing.T) {
	ts, err := ParseTemplates("a100:3, h100")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Name != "a100" || ts[0].Weight != 3 || ts[1].Weight != 1 {
		t.Errorf("unexpected parse: %+v", ts)
	}
	for _, bad := range []string{"", "v100", "a100:0", "a100:x"} {
		if _, err := ParseTemplates(bad); err == nil {
			t.Errorf("ParseTemplates(%q) succeeded, want error", bad)
		}
	}
}

func TestFromOptionsErrors(t *testing.T) {
	for _, o := range []Options{
		{Nodes: 0},
		{Nodes: 4, Templates: "v100"},
		{Nodes: 4, Router: "random"},
		{Nodes: 4, Requests: -1},
		{Nodes: 4, Rate: -1},
		{Nodes: 4, Tier2Policy: "mru"},
		{Nodes: 10_000_000},
		{Nodes: maxNodes + 1, Requests: 100},
		{Nodes: 4, Requests: maxRequests + 1},
	} {
		if _, err := FromOptions(o); err == nil {
			t.Errorf("FromOptions(%+v) succeeded, want error", o)
		}
	}
	for _, o := range []Options{{Nodes: maxNodes}, {Nodes: 1, Requests: maxRequests}} {
		if _, err := FromOptions(o); err != nil {
			t.Errorf("FromOptions(%+v) at the size limits: %v", o, err)
		}
	}
	cfg, err := FromOptions(Options{Nodes: 4, Templates: "h100", Router: "wrr", Requests: 10, Seed: 7, Tier2Policy: "2q"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 4 || cfg.Stream.Requests != 10 || cfg.Seed != 7 || cfg.Router != RouterWRR {
		t.Errorf("unexpected config: %+v", cfg)
	}
}

// fleetBytes runs the fleet and returns the canonical encoding plus a
// deep dump, the same double check the exp determinism tests use.
func fleetBytes(t *testing.T, cfg Config, workers int) string {
	t.Helper()
	res, _, err := Run(context.Background(), cfg, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String() + fmt.Sprintf("%#v", res) + Render(res)
}

// TestFleetParallelByteIdentical is the tentpole contract: the fleet
// result is byte-identical at any worker count (jobs write node-indexed
// slots; units recycle through Reset; aggregation runs in node order).
func TestFleetParallelByteIdentical(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Stream.Requests = 64 // keep the test fast
	seq := fleetBytes(t, cfg, 1)
	for _, workers := range []int{2, 4} {
		if got := fleetBytes(t, cfg, workers); got != seq {
			t.Fatalf("fleet output differs at workers=%d", workers)
		}
	}
}

// TestFleetRunTwiceIdentical pins run-to-run determinism within one
// process (fresh units vs a process that never recycled).
func TestFleetRunTwiceIdentical(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Stream.Requests = 32
	cfg.Router = RouterWRR
	if a, b := fleetBytes(t, cfg, 2), fleetBytes(t, cfg, 2); a != b {
		t.Fatal("fleet output differs across runs")
	}
}

// TestFleetAggregates sanity-checks the folded summary.
func TestFleetAggregates(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Stream.Requests = 32
	res, _, err := Run(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema {
		t.Errorf("schema = %q", res.Schema)
	}
	if res.Fleet.Requests != 32 {
		t.Errorf("fleet requests = %d, want 32", res.Fleet.Requests)
	}
	perNode := 0
	for _, n := range res.PerNode {
		perNode += n.Requests
	}
	if perNode != 32 {
		t.Errorf("per-node requests sum = %d, want 32", perNode)
	}
	if res.Fleet.LatencyP50MS <= 0 || res.Fleet.LatencyP99MS < res.Fleet.LatencyP50MS ||
		res.Fleet.LatencyP999MS < res.Fleet.LatencyP99MS {
		t.Errorf("implausible percentiles: %+v", res.Fleet)
	}
	if res.Fleet.Tier1HitRate <= 0 || res.Fleet.Tier1HitRate > 1 {
		t.Errorf("implausible tier-1 hit rate %v", res.Fleet.Tier1HitRate)
	}
	if res.Fleet.ThroughputRPS <= 0 {
		t.Errorf("throughput = %v", res.Fleet.ThroughputRPS)
	}
	tplNodes := 0
	for _, ts := range res.Templates {
		tplNodes += ts.Nodes
	}
	if tplNodes != 4 {
		t.Errorf("template node sum = %d, want 4", tplNodes)
	}
}

// TestScalingSweepDeterministic covers the committed-figure path.
func TestScalingSweepDeterministic(t *testing.T) {
	base := DefaultConfig(4)
	base.Stream.Requests = 48
	sizes := []int{2, 4}
	a, err := ScalingSweep(context.Background(), base, sizes, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScalingSweep(context.Background(), base, sizes, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep differs across worker counts:\n%+v\n%+v", a, b)
	}
	svg := ScalingSVG(a).SVG()
	if svg == "" || ScalingTable(a).Render() == "" {
		t.Error("empty figure or table")
	}
}

// TestScalingSweepSizeLimits: -scaling sizes bypass FromOptions, so the
// sweep checks them itself, before simulating any size.
func TestScalingSweepSizeLimits(t *testing.T) {
	base := DefaultConfig(4)
	base.Stream.Requests = 48
	if out, err := ScalingSweep(context.Background(), base, []int{2, maxNodes + 1}, 1, nil); err == nil || out != nil {
		t.Errorf("sweep to %d nodes: points %v, err %v; want a size error and no points", maxNodes+1, out, err)
	}
	base.Stream.Requests = maxRequests + 1
	if _, err := ScalingSweep(context.Background(), base, []int{2}, 1, nil); err == nil {
		t.Errorf("sweep of %d requests succeeded, want a size error", base.Stream.Requests)
	}
}

// TestNodeFootprintIsPageBound: the footprint a node's runtime is
// presized to, computed without emitting any access, must be exactly
// the page-ID bound (max page + 1) of the accesses its requests emit,
// and the emitter's final cursor.
func TestNodeFootprintIsPageBound(t *testing.T) {
	cfg := DefaultConfig(16)
	reqs := GenerateStream(cfg.Stream)
	for _, tpl := range cfg.Templates {
		pp := tpl.prefixPages()
		layout := nodeLayout{prefixPages: pp, cursor: int64(cfg.Stream.Prefixes * pp)}
		var buf []gpu.Access
		maxPage := int64(-1)
		for _, r := range reqs {
			buf = layout.emit(buf[:0], r)
			for _, a := range buf {
				maxPage = max(maxPage, int64(a.Page))
			}
		}
		fp := nodeFootprint(tpl, cfg.Stream, reqs)
		if fp != maxPage+1 || fp != layout.cursor {
			t.Errorf("%s: footprint %d, page bound %d, final cursor %d", tpl.Name, fp, maxPage+1, layout.cursor)
		}
	}
}

// TestFleetNodeAllocGate pins the per-request cost of a node
// simulation at zero allocations once its unit is warm: every request's
// accesses go into the unit's recycled buffer and every kernel resets
// the unit's one GPU. A 384-request node (the whole 16-node stream)
// may allocate only its per-node records — the latency slice, the
// digest, the runtime's reset — not anything per request.
func TestFleetNodeAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	cfg := DefaultConfig(16)
	reqs := GenerateStream(cfg.Stream)
	tpl := cfg.Templates[0]
	ccfg := tpl.coreConfig(cfg.Seed, cfg.Tier2Policy)
	ccfg.FootprintPages = int(nodeFootprint(tpl, cfg.Stream, reqs))
	u := newUnit(ccfg, tpl.gpuConfig())
	simulateNode(u, tpl, cfg.Stream, reqs)
	for _, n := range []int{24, 96, 384} {
		allocs := testing.AllocsPerRun(3, func() {
			u.rt.Reset(ccfg)
			simulateNode(u, tpl, cfg.Stream, reqs[:n])
		})
		t.Logf("%d requests: %.0f allocs per node", n, allocs)
		if allocs >= 64 {
			t.Errorf("%d-request node = %.0f allocs, want < 64 (nothing per request)", n, allocs)
		}
	}
}
