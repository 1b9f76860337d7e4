package workload

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/graph"
	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/raceflag"
)

// testScale keeps unit tests fast while preserving every capacity ratio.
func testScale() Scale {
	return Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2}
}

func TestScaleArithmetic(t *testing.T) {
	s := testScale()
	if s.CombinedPages() != 1280 {
		t.Fatalf("combined = %d", s.CombinedPages())
	}
	if s.WorkingSetPages() != 2560 {
		t.Fatalf("working set = %d", s.WorkingSetPages())
	}
}

func TestAllNineApps(t *testing.T) {
	ws := All(testScale())
	if len(ws) != 9 {
		t.Fatalf("suite has %d apps, want 9", len(ws))
	}
	seen := map[string]bool{}
	for i, w := range ws {
		if w.Name() != Names[i] {
			t.Fatalf("app %d = %q, want %q (Table 2 order)", i, w.Name(), Names[i])
		}
		seen[w.Name()] = true
	}
	if len(seen) != 9 {
		t.Fatal("duplicate app names")
	}
}

func TestTracesInBoundsAndDeterministic(t *testing.T) {
	s := testScale()
	for _, w := range All(s) {
		tr := w.Trace()
		if len(tr) == 0 {
			t.Fatalf("%s: empty trace", w.Name())
		}
		for i, a := range tr {
			if int64(a.Page) < 0 || int64(a.Page) >= w.Pages() {
				t.Fatalf("%s: access %d page %d outside [0,%d)", w.Name(), i, a.Page, w.Pages())
			}
		}
		tr2 := w.Trace()
		if len(tr) != len(tr2) {
			t.Fatalf("%s: nondeterministic trace length", w.Name())
		}
		for i := range tr {
			if tr[i] != tr2[i] {
				t.Fatalf("%s: nondeterministic at %d", w.Name(), i)
			}
		}
	}
}

func TestFootprintsNearWorkingSet(t *testing.T) {
	s := testScale()
	target := float64(s.WorkingSetPages())
	for _, w := range All(s) {
		ratio := float64(w.Pages()) / target
		if ratio < 0.75 || ratio > 1.25 {
			t.Fatalf("%s: footprint %d is %.2fx the working-set target %d",
				w.Name(), w.Pages(), ratio, s.WorkingSetPages())
		}
	}
}

// Table 2 reproduction: each application's reuse percentage and
// distance bias must land in its paper band (qualitative category).
func TestTable2CharacteristicBands(t *testing.T) {
	s := testScale()
	type band struct {
		reuseLo, reuseHi float64
		check            func(a *Analysis) bool
		desc             string
	}
	bands := map[string]band{
		// Low reuse, Tier-1 bias (paper: 1.17%, §3.3).
		"LavaMD": {0.005, 0.03, func(a *Analysis) bool {
			sh, _, _ := a.PairFractions()
			return sh > 0.95
		}, "reuse pairs inside Tier-1"},
		// Low reuse, Tier-1 bias (paper: 19.47%, 99.99% within Tier-1).
		"Pathfinder": {0.15, 0.25, func(a *Analysis) bool {
			sh, _, _ := a.PairFractions()
			return sh > 0.95
		}, "reuse pairs inside Tier-1"},
		// Medium reuse, Tier-2 bias at evictions (paper: 40%).
		"MultiVectorAdd": {0.2, 0.4, func(a *Analysis) bool {
			_, med, _ := a.EvictFractions()
			return med > 0.8
		}, "eviction RRDs in Tier-2 band"},
		// Medium reuse, Tier-2-leaning evictions (paper: 32.86%).
		"BFS": {0.3, 1.0, func(a *Analysis) bool {
			_, med, long := a.EvictFractions()
			return med+long > 0.5 && med > 0.2
		}, "mixed Tier-2/Tier-3 eviction RRDs"},
		// High reuse, Tier-2 bias (paper: 83.38%).
		"Srad": {0.4, 0.9, func(a *Analysis) bool {
			_, med, _ := a.EvictFractions()
			return med > 0.7
		}, "eviction RRDs in Tier-2 band"},
		// High reuse, Tier-2-heavy (paper: 93.54%).
		"Backprop": {0.85, 1.0, func(a *Analysis) bool {
			_, med, _ := a.EvictFractions()
			return med > 0.35
		}, "large Tier-2 eviction mass"},
		// High reuse, Tier-3 bias (paper: 90.42%, 94% Tier-3).
		"PageRank": {0.8, 1.0, func(a *Analysis) bool {
			_, _, long := a.EvictFractions()
			return long > 0.5
		}, "Tier-3-biased eviction RRDs"},
		// High reuse, Tier-3 bias (paper: 79.96%, 97% Tier-3).
		"SSSP": {0.6, 1.0, func(a *Analysis) bool {
			_, med, long := a.EvictFractions()
			return long > 0.35 && med+long > 0.7
		}, "Tier-3-leaning eviction RRDs"},
		// High reuse, pure Tier-3 (paper: 81.33%, 100% Tier-3).
		"Hotspot": {0.7, 0.9, func(a *Analysis) bool {
			_, _, long := a.EvictFractions()
			return long > 0.99
		}, "all eviction RRDs in Tier-3 band"},
	}
	for _, w := range All(s) {
		b, ok := bands[w.Name()]
		if !ok {
			t.Fatalf("no band for %s", w.Name())
		}
		a := Analyze(w.Name(), w.Trace(), s, 64*1024, 2000)
		if r := a.ReusePct(); r < b.reuseLo || r > b.reuseHi {
			t.Errorf("%s: reuse %.1f%% outside [%.0f%%, %.0f%%]",
				w.Name(), 100*r, 100*b.reuseLo, 100*b.reuseHi)
		}
		if !b.check(a) {
			es, em, el := a.EvictFractions()
			ps, pm, pl := a.PairFractions()
			t.Errorf("%s: bias check failed (%s): evict=[%.2f %.2f %.2f] pair=[%.2f %.2f %.2f]",
				w.Name(), b.desc, es, em, el, ps, pm, pl)
		}
	}
}

func TestBackpropLargestIO(t *testing.T) {
	// Table 2: Backprop has by far the largest total I/O, Hotspot second.
	s := testScale()
	sizes := map[string]int{}
	for _, w := range All(s) {
		sizes[w.Name()] = len(w.Trace())
	}
	for name, n := range sizes {
		if name != "Backprop" && n >= sizes["Backprop"] {
			t.Fatalf("%s trace (%d) >= Backprop (%d)", name, n, sizes["Backprop"])
		}
		if name != "Backprop" && name != "Hotspot" && n >= sizes["Hotspot"] {
			t.Fatalf("%s trace (%d) >= Hotspot (%d)", name, n, sizes["Hotspot"])
		}
	}
}

func TestMultiVectorAddConstantRRD(t *testing.T) {
	// Figure 4b: a page has (nearly) the same RRD each time it is
	// evicted from Tier-1.
	s := testScale()
	w := NewMultiVectorAdd(s)
	a := Analyze(w.Name(), w.Trace(), s, 64*1024, 0)
	series := a.EvictionSeries(2)
	if len(series) == 0 {
		t.Fatal("no page evicted twice")
	}
	checked := 0
	for _, rrds := range series {
		for i := 1; i < len(rrds); i++ {
			lo, hi := rrds[i-1], rrds[i]
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo > 0 && float64(hi)/float64(lo) > 1.5 {
				t.Fatalf("RRD series not near-constant: %v", rrds)
			}
		}
		checked++
		if checked > 50 {
			break
		}
	}
}

func TestVTDCorrelationLinear(t *testing.T) {
	// Figure 4a: VTD correlates linearly with reuse distance.
	s := testScale()
	for _, w := range []Workload{NewSrad(s), NewBackprop(s)} {
		a := Analyze(w.Name(), w.Trace(), s, 64*1024, 5000)
		_, _, r, ok := a.PairCorrelation()
		if !ok {
			t.Fatalf("%s: no valid fit", w.Name())
		}
		if r < 0.9 {
			t.Fatalf("%s: correlation %.2f < 0.9", w.Name(), r)
		}
	}
}

func TestGraphSetLayout(t *testing.T) {
	gs := NewGraphSet(testScale(), 42)
	if gs.OffsetPages() <= 0 || gs.ValuePages() <= 0 || gs.EdgePages() <= 0 {
		t.Fatalf("degenerate layout: %+v", gs)
	}
	// Edge list should dominate (≈80% of footprint).
	frac := float64(gs.EdgePages()) / float64(gs.Pages())
	if frac < 0.6 || frac > 0.95 {
		t.Fatalf("edge fraction %.2f, want ≈0.8", frac)
	}
	// Regions must not overlap: offsets < values < edges in page space.
	if gs.valuePage(0) != gs.OffsetPages() || gs.edgePage(0) != gs.OffsetPages()+gs.ValuePages() {
		t.Fatal("page regions overlap")
	}
}

// TestGraphSetMatchesBuildCSR: a GraphSet's graph is BuildCSR over
// GenerateKron at the set's scale and edge factor, for tiny through
// quick-scale working sets and several dataset seeds.
func TestGraphSetMatchesBuildCSR(t *testing.T) {
	for _, sc := range []Scale{
		{Tier1Pages: 4, Tier2Pages: 16, Oversubscription: 2},
		{Tier1Pages: 64, Tier2Pages: 256, Oversubscription: 2},
		{Tier1Pages: 64, Tier2Pages: 256, Oversubscription: 3},
		testScale(),
	} {
		for _, seed := range []int64{42, 7} {
			c := NewGraphSet(sc, seed).CSR()
			scale := bits.TrailingZeros32(uint32(c.N))
			want := graph.BuildCSR(c.N, graph.GenerateKron(scale, c.M()/int(c.N), seed))
			if !slices.Equal(c.Offsets, want.Offsets) || !slices.Equal(c.Dst, want.Dst) || !slices.Equal(c.Weight, want.Weight) {
				t.Fatalf("%+v, seed %d: GraphSet's CSR differs from BuildCSR(GenerateKron)", sc, seed)
			}
		}
	}
}

// TestGraphSetAllocGate: building the quick-scale graph (2^16 vertices,
// 524288 edges) allocates at most 9 MB — the packed edges (4.2 MB) and
// the CSR (4.7 MB) — where an edge list plus the sorted copy BuildCSR
// takes came to 17.3 MB.
func TestGraphSetAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gs := NewGraphSet(testScale(), 42)
	gs.CSR()
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 9 {
		t.Errorf("quick-scale graph build allocated %.1f MB, want <= 9", mb)
	}
}

func TestZipfStreamSkewControlsDistinct(t *testing.T) {
	distinct := func(skew float64) int {
		z := NewZipfStream(1000, skew, 5000, 7)
		seen := map[int64]bool{}
		for {
			a, ok := z.Next()
			if !ok {
				break
			}
			seen[int64(a.Page)] = true
		}
		return len(seen)
	}
	uniform, skewed := distinct(0), distinct(1.0)
	if skewed >= uniform {
		t.Fatalf("skew=1 gave %d distinct pages >= skew=0's %d", skewed, uniform)
	}
}

func TestZipfStreamBoundsAndCount(t *testing.T) {
	z := NewZipfStream(100, 0.5, 500, 1)
	n := 0
	for {
		a, ok := z.Next()
		if !ok {
			break
		}
		if a.Page < 0 || int64(a.Page) >= 100 {
			t.Fatalf("page %d out of range", a.Page)
		}
		n++
	}
	if n != 500 {
		t.Fatalf("drew %d accesses, want 500", n)
	}
}

func TestStreamWrapsTrace(t *testing.T) {
	w := NewPathfinder(testScale())
	st := Stream(w)
	tr := w.Trace()
	for i := 0; ; i++ {
		a, ok := st.Next()
		if !ok {
			if i != len(tr) {
				t.Fatalf("stream ended at %d, trace has %d", i, len(tr))
			}
			return
		}
		if a != tr[i] {
			t.Fatalf("stream diverges from trace at %d", i)
		}
	}
}

func TestAnalyzeTinyTraceByHand(t *testing.T) {
	// Trace A B A over tiers T1=1: A's reuse distance is 1 (B), which is
	// >= T1 (1) and < T1+T2 (3) -> Medium pair.
	s := Scale{Tier1Pages: 1, Tier2Pages: 2, Oversubscription: 1}
	trace := []gpu.Access{{Page: 0}, {Page: 1}, {Page: 0}}
	a := Analyze("tiny", trace, s, 64, 10)
	if a.DistinctPages != 2 || a.ReusedPages != 1 {
		t.Fatalf("distinct=%d reused=%d", a.DistinctPages, a.ReusedPages)
	}
	if a.PairMedium != 1 || a.PairShort != 0 || a.PairLong != 0 {
		t.Fatalf("pair bins = [%d %d %d]", a.PairShort, a.PairMedium, a.PairLong)
	}
	// A is evicted when B arrives (T1 capacity 1) and reused later:
	// exactly one eviction with RRD=1 (page B) -> Medium.
	if a.EvictMedium != 1 {
		t.Fatalf("evict bins = [%d %d %d], dead=%d",
			a.EvictShort, a.EvictMedium, a.EvictLong, a.DeadEvictions)
	}
	if a.TotalIOBytes != 3*64 {
		t.Fatalf("io bytes = %d", a.TotalIOBytes)
	}
}

func TestRegularSubset(t *testing.T) {
	ws := Regular(testScale())
	if len(ws) != 6 {
		t.Fatalf("regular suite = %d apps, want 6", len(ws))
	}
	for _, w := range ws {
		switch w.Name() {
		case "BFS", "PageRank", "SSSP":
			t.Fatalf("graph app %s in regular suite", w.Name())
		}
	}
}
