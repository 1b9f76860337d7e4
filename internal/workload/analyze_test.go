package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/raceflag"
	"github.com/gmtsim/gmt/internal/reuse"
	"github.com/gmtsim/gmt/internal/tier"
)

// referenceAnalyze is Analyze as it was written with maps: per-page
// position lists searched for each victim's next access, and every
// eviction's RRD answered afterwards by reuse.DistinctInRanges over a
// barrier-free copy of the trace. Analyze must give the same Analysis.
func referenceAnalyze(name string, trace []gpu.Access, s Scale, pageSize int64, maxPairs int) *Analysis {
	var stripped []gpu.Access
	for _, acc := range trace {
		if !acc.IsBarrier() {
			stripped = append(stripped, acc)
		}
	}
	trace = stripped
	cl := reuse.Classifier{Tier1Pages: int64(s.Tier1Pages), Tier2Pages: int64(s.Tier2Pages)}
	a := &Analysis{}
	a.Name = name
	a.Accesses = int64(len(trace))
	a.TotalIOBytes = a.Accesses * pageSize

	positions := make(map[tier.PageID][]int)
	tr := reuse.NewDistanceTracker()
	for i, acc := range trace {
		positions[acc.Page] = append(positions[acc.Page], i)
		vtd, rd, ok := tr.Observe(acc.Page)
		if !ok {
			continue
		}
		switch cl.Classify(rd) {
		case reuse.Short:
			a.PairShort++
		case reuse.Medium:
			a.PairMedium++
		default:
			a.PairLong++
		}
		if len(a.Pairs) < maxPairs {
			a.Pairs = append(a.Pairs, PairSample{VTD: vtd, RD: rd})
		}
	}
	a.DistinctPages = int64(len(positions))
	var maxPage tier.PageID = -1
	for p, pos := range positions {
		if len(pos) > 1 {
			a.ReusedPages++
		}
		maxPage = max(maxPage, p)
	}
	a.Characteristics.Pages = int64(maxPage) + 1

	clock := tier.NewClock(s.Tier1Pages)
	type evict struct {
		page      tier.PageID
		pos, next int
	}
	var evicts []evict
	pageTrace := make([]tier.PageID, len(trace))
	for i, acc := range trace {
		pageTrace[i] = acc.Page
		if clock.Contains(acc.Page) {
			clock.Touch(acc.Page)
			continue
		}
		if clock.Full() {
			v := clock.Victim()
			clock.Remove(v)
			pos := positions[v]
			if k := sort.SearchInts(pos, i+1); k < len(pos) {
				evicts = append(evicts, evict{page: v, pos: i, next: pos[k]})
			} else {
				a.DeadEvictions++
			}
		}
		clock.Insert(acc.Page)
	}
	queries := make([]reuse.RangeQuery, len(evicts))
	for i, e := range evicts {
		queries[i] = reuse.RangeQuery{From: e.pos - 1, To: e.next - 1}
	}
	rrds := reuse.DistinctInRanges(pageTrace, queries)
	for i, e := range evicts {
		a.Evictions = append(a.Evictions, EvictionRecord{Page: e.page, Position: e.pos, RRD: rrds[i]})
		switch cl.Classify(rrds[i]) {
		case reuse.Short:
			a.EvictShort++
		case reuse.Medium:
			a.EvictMedium++
		default:
			a.EvictLong++
		}
	}
	return a
}

// checkAnalysis requires Analyze to equal the reference on one trace:
// every characteristic, every eviction record and every pair sample.
func checkAnalysis(t *testing.T, what string, trace []gpu.Access, s Scale, maxPairs int) {
	t.Helper()
	got := Analyze(what, trace, s, 64*1024, maxPairs)
	want := referenceAnalyze(what, trace, s, 64*1024, maxPairs)
	if got.Characteristics != want.Characteristics {
		t.Fatalf("%s: characteristics\n got %+v\nwant %+v", what, got.Characteristics, want.Characteristics)
	}
	if !slices.Equal(got.Evictions, want.Evictions) {
		t.Fatalf("%s: %d evictions differ from the reference's %d", what, len(got.Evictions), len(want.Evictions))
	}
	if !slices.Equal(got.Pairs, want.Pairs) {
		t.Fatalf("%s: %d pair samples differ from the reference's %d", what, len(got.Pairs), len(want.Pairs))
	}
}

// TestAnalyzeMatchesReference: on random traces with barriers, repeated
// accesses, a Tier-1 as small as one page and pages touched once, and
// on the nine quick-scale applications, Analyze equals the map-based
// reference, with and without pair samples.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 200; seed++ {
		footprint := 1 + rng.Intn(120)
		hot := 1 + rng.Intn(footprint)
		var trace []gpu.Access
		for n := rng.Intn(600); len(trace) < n; {
			switch r := rng.Intn(20); {
			case r == 0:
				trace = append(trace, gpu.Barrier)
			case r < 3 && len(trace) > 0:
				trace = append(trace, trace[len(trace)-1]) // a repeat
			case r < 12:
				trace = append(trace, gpu.Access{Page: int64(rng.Intn(hot)), Write: r%2 == 0})
			default:
				trace = append(trace, gpu.Access{Page: int64(rng.Intn(footprint))})
			}
		}
		trace = append(trace, gpu.Access{Page: int64(footprint)}) // touched once
		s := Scale{Tier1Pages: 1 + rng.Intn(8), Tier2Pages: rng.Intn(32), Oversubscription: 2}
		checkAnalysis(t, fmt.Sprintf("seed %d", seed), trace, s, rng.Intn(3)*rng.Intn(400))
	}
	checkAnalysis(t, "empty", nil, Scale{Tier1Pages: 1}, 10)
	checkAnalysis(t, "barriers only", []gpu.Access{gpu.Barrier, gpu.Barrier}, Scale{Tier1Pages: 1}, 10)
	for _, w := range All(testScale()) {
		trace := w.Trace()
		checkAnalysis(t, w.Name(), trace, testScale(), 0)
		checkAnalysis(t, w.Name(), trace, testScale(), 20_000)
	}
}

// TestTraceAllocGate: generating the ten quick-scale traces, their graph
// built beforehand, allocates at most 2.6× the 4.28 MB the traces take
// (2.51× measured). The six regular generators fill one slice of the
// trace's exact length (exactTrace); the graph generators and KVServe
// emit into doubling chunks and copy them once into such a slice, which
// for all ten allocated 3.12×; growing one slice by append allocated
// 5.53×.
func TestTraceAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	apps := append(All(testScale()), NewKVServe(testScale()))
	for _, w := range apps {
		switch w.(type) {
		case *BFSWorkload, *PageRankWorkload, *SSSPWorkload:
			w.Pages() // builds the graph they share, outside the measurement
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	accesses := 0
	for _, w := range apps {
		accesses += len(w.Trace())
	}
	runtime.ReadMemStats(&after)
	traceBytes := float64(accesses) * 16
	if ratio := float64(after.TotalAlloc-before.TotalAlloc) / traceBytes; ratio > 2.6 {
		t.Errorf("the ten quick-scale traces (%.2f MB) allocated %.2f× their size, want <= 2.6", traceBytes/1e6, ratio)
	}
}

// TestRegularTraceAllocGate: each regular generator allocates at most
// 1.01× the bytes of the trace it returns, with barriers on and off,
// once that size is rounded up to whole 8 KiB pages as the allocator
// rounds a large object (LavaMD's 41,264-byte trace takes 49,152):
// exactTrace counts the loop nest, then fills one slice of exactly that
// length. Emitting through the chunked builder allocated 2.0–2.8×, the
// chunks and then their copy.
func TestRegularTraceAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	for _, barriers := range []bool{false, true} {
		for _, w := range Regular(testScale()) {
			switch w := w.(type) {
			case *Srad:
				w.Barriers = barriers
			case *Backprop:
				w.Barriers = barriers
			case *Hotspot:
				w.Barriers = barriers
			default:
				if barriers {
					continue
				}
			}
			n := len(w.Trace())
			const page = 8 << 10
			traceBytes := float64((n*16 + page - 1) / page * page)
			if ratio := float64(bytesPerCall(5, func() { w.Trace() })) / traceBytes; ratio > 1.01 {
				t.Errorf("%s (barriers %v, %d accesses) allocated %.3f× its trace's %.0f bytes in whole pages, want <= 1.01",
					w.Name(), barriers, n, ratio, traceBytes)
			}
		}
	}
}

// bytesPerCall reports the mean bytes a call of f allocates over runs
// calls, rounded down. It measures on one P after a forced collection,
// so the runtime's own bookkeeping stays out of the window: on two Ps
// the scheduler may start an OS thread mid-call (about 5 KB), a sixth of
// LavaMD's trace.
func bytesPerCall(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAnalyzeAllocGate: analyzing the nine quick-scale traces allocates
// at most 40 bytes per access (34.5 measured). The sweep's arrays are
// sized to the trace and its pages up front, and the eviction records
// once at their count; the map-based analysis allocated 249 bytes per
// access.
func TestAnalyzeAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	var traces [][]gpu.Access
	accesses := 0
	for _, w := range All(testScale()) {
		traces = append(traces, w.Trace())
		accesses += len(traces[len(traces)-1])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tr := range traces {
		Analyze("gate", tr, testScale(), 64*1024, 0)
	}
	runtime.ReadMemStats(&after)
	if b := float64(after.TotalAlloc-before.TotalAlloc) / float64(accesses); b > 40 {
		t.Errorf("Analyze over the nine quick-scale traces allocated %.1f B per access, want <= 40", b)
	}
}
