package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/graph"
	"github.com/gmtsim/gmt/internal/workload"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n, p   int
		want   float64
		wantOK bool
	}{
		{100, 90, 90, true},  // rank 90, ten beyond
		{99, 90, 0, false},   // rank 90, nine beyond
		{200, 90, 180, true}, // rank 180
		{20, 50, 10, true},   // rank 10, ten beyond
		{19, 50, 0, false},   // rank 10, nine beyond
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(c.n), float64(c.p))
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %d) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	lay := layers{}
	lay.setPct("x", seq(99), 90)
	if v := lay["x"]; v != (value{}) {
		t.Errorf("unreportable percentile recorded as %+v, want zero with no samples", v)
	}
}

// TestMetricsMatchBenchmarkJSON holds the code's metric and workload
// lists equal to the repository's BENCHMARK.json, both ways.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var jsonNames []string
	for _, w := range b.Workloads {
		jsonNames = append(jsonNames, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no reason", w.Name)
		}
	}
	if !reflect.DeepEqual(names, jsonNames) {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", names, jsonNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, got []metric) {
		want := map[string]metricDef{}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s metric %q: name outside [A-Za-z0-9_.-]", kind, d.name)
			}
			if _, dup := want[d.name]; dup {
				t.Errorf("%s metric %q declared twice", kind, d.name)
			}
			want[d.name] = d
		}
		seen := map[string]bool{}
		for _, m := range got {
			d, ok := want[m.Name]
			if !ok {
				t.Errorf("BENCHMARK.json %s metric %q is not emitted", kind, m.Name)
				continue
			}
			seen[m.Name] = true
			if m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %q: BENCHMARK.json says %s/%s, code %s/%s", kind, m.Name, m.Unit, m.Better, d.unit, d.better)
			}
			if (m.Bound != nil) != (kind == "end_to_end") {
				t.Errorf("%s metric %q: bound present = %v", kind, m.Name, m.Bound != nil)
			}
		}
		for _, d := range defs {
			if !seen[d.name] {
				t.Errorf("emitted %s metric %q is missing from BENCHMARK.json", kind, d.name)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// TestHostReadings: the calibration takes CPU time and the peak RSS is
// read, the two host readings every untraced run rests on.
func TestHostReadings(t *testing.T) {
	if c := calibrate(); c <= 0 {
		t.Errorf("calibrate took %v CPU seconds", c)
	}
	if rss, err := peakRSSMB(); err != nil || rss <= 0 {
		t.Errorf("peakRSSMB = %v, %v", rss, err)
	}
}

func TestResolve(t *testing.T) {
	defs := []metricDef{{"a", "ms", "lower"}, {"b", "s", "lower"}}
	vals, err := resolve(defs, layers{"b": {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []value{{}, {2, 3}}; !reflect.DeepEqual(vals, want) {
		t.Errorf("resolve = %v, want %v", vals, want)
	}
	if _, err := resolve(defs, layers{"c": {1, 1}}); err == nil {
		t.Error("resolve accepted an undeclared metric")
	}
}

// TestEveryPlannedJobHasAClass fails when exp.Plan's key format changes
// instead of letting the traced pass silently lose that time.
func TestEveryPlannedJobHasAClass(t *testing.T) {
	s := exp.NewSuite(workload.Scale{Tier1Pages: 16, Tier2Pages: 64, Oversubscription: 2})
	classes := map[string]int{}
	for _, name := range exp.ExperimentNames {
		for _, ph := range exp.Plan(s, []string{name}) {
			jobs := ph.Jobs
			if ph.More != nil {
				jobs = append(jobs, ph.More()...)
			}
			for _, j := range jobs {
				class, _ := jobClass(j.Key)
				if class == "other" {
					t.Errorf("%s: job key %q has no class", name, j.Key)
				}
				classes[class]++
			}
		}
	}
	for _, c := range []string{"trace", "run", "cfg", "prefix", "hmm", "oracle"} {
		if classes[c] == 0 {
			t.Errorf("no planned job of class %s; the classifier is stale", c)
		}
	}
}

// TestTracedPassMeasuresTheSameProgram: at the workload scale,
// Plan+RunJobs with timed jobs fills the memo exactly as exp.Prewarm
// does and renders the same bytes.
func TestTracedPassMeasuresTheSameProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both paper workloads twice")
	}
	for _, c := range []struct {
		name        string
		experiments []string
	}{{"paper-core", coreExperiments()}, {"paper-sweeps", sweepExperiments}} {
		plain := exp.NewSuite(quickScale(42))
		want, err := paperPass(plain, c.experiments, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced := exp.NewSuite(quickScale(42))
		lay := layers{}
		got, err := paperPass(traced, c.experiments, lay)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: traced digest %s, untraced %s", c.name, got, want)
		}
		ws, wh := plain.Counters()
		gs, gh := traced.Counters()
		if gs != ws || gh != wh {
			t.Errorf("%s: traced counters (%d sims, %d hits), Prewarm (%d, %d)", c.name, gs, gh, ws, wh)
		}
		if lay["exp.jobs"].v == 0 {
			t.Errorf("%s: traced pass timed no jobs", c.name)
		}
	}
}

// TestSmoke runs one fleet pass and a 10-submission gmtd sequence and
// checks both against their goldens.
func TestSmoke(t *testing.T) {
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key string
		b   bench
	}{
		{goldenKey("fleet-256", 42), fleetBench(42)},
		{goldenKey(smokeName, 42), gmtdBench(42, smokeSubmissions)},
	} {
		got, err := digestOf(c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if want := goldens[c.key]; got != want {
			t.Errorf("%s: digest %s, golden %s", c.key, got, want)
		}
	}
}

// TestSequenceWorkIsSeedInvariant: every seed's sequence has the same
// class counts and the same number of distinct jobs (executions), so the
// seed changes which jobs run but not how many.
func TestSequenceWorkIsSeedInvariant(t *testing.T) {
	var want map[string]int
	for seed := int64(1); seed <= 20; seed++ {
		subs := gmtdSequence(seed, gmtdSubmissions)
		got := map[string]int{}
		distinct := map[string]bool{}
		for _, s := range subs {
			got[s.class]++
			if !distinct[string(s.body)] {
				distinct[string(s.body)] = true
				got["distinct "+s.class]++
			}
		}
		if len(subs) != gmtdSubmissions || len(distinct) != 78 {
			t.Errorf("seed %d: %d submissions, %d distinct; want %d, 78", seed, len(subs), len(distinct), gmtdSubmissions)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: class counts %v, seed 1 %v", seed, got, want)
		}
	}
}

func TestKronParamsMatchGraphSet(t *testing.T) {
	sc := workload.Scale{Tier1Pages: 16, Tier2Pages: 64, Oversubscription: 2}
	scale, ef := kronParams(sc)
	got := graph.BuildCSR(int32(1)<<scale, graph.GenerateKron(scale, ef, datasetSeed(sc)))
	if want := workload.NewGraphSet(sc, 42).CSR(); !reflect.DeepEqual(got, want) {
		t.Errorf("kronParams = (%d, %d) builds a graph of %d vertices, %d edges; GraphSet has %d, %d",
			scale, ef, got.N, got.M(), want.N, want.M())
	}
}

func TestCPUBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "github.com/gmtsim/gmt/internal/core.(*Runtime).Access", "github.com/gmtsim/gmt/internal/sim.(*Engine).Run"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "github.com/gmtsim/gmt/internal/graph.GenerateKron"}, "gc"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "github.com/gmtsim/gmt/cmd/gmtperf.client.do"}, "net"},
		{[]string{"encoding/json.(*encodeState).marshal", "github.com/gmtsim/gmt/internal/serve.writeJSON", "net/http.(*conn).serve"}, "serve"},
		{[]string{"github.com/gmtsim/gmt/internal/plot.(*Figure).SVG", "github.com/gmtsim/gmt/internal/exp.RunExperiment"}, "exp"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := cpuBucket(c.stack); got != c.want {
			t.Errorf("cpuBucket(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCPUSharesReadsARealProfile profiles a graph build and expects the
// graph bucket to lead every other package. (Under the race detector
// many samples land in its runtime, so the share itself is not pinned.)
func TestCPUSharesReadsARealProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		graph.GenerateKron(14, 8, 1)
	}
	pprof.StopCPUProfile()
	shares, n, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if n == 0 || sum < 0.999 || sum > 1.001 {
		t.Fatalf("%d samples, shares sum to %v; want samples summing to 1", n, sum)
	}
	for _, p := range cpuPackages {
		if p != "graph" && shares[p] >= shares["graph"] {
			t.Errorf("cpu.%s share %v >= cpu.graph %v", p, shares[p], shares["graph"])
		}
	}
}
