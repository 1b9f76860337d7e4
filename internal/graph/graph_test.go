package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestKronDeterministicAndSized(t *testing.T) {
	a := GenerateKron(8, 4, 42)
	b := GenerateKron(8, 4, 42)
	if len(a) != 256*4 {
		t.Fatalf("edges = %d, want %d", len(a), 256*4)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := GenerateKron(8, 4, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestKronSkewedDegrees(t *testing.T) {
	// R-MAT graphs have hub vertices: max degree far above average.
	edges := GenerateKron(12, 8, 7)
	csr := BuildCSR(1<<12, edges)
	var maxDeg int64
	for v := int32(0); v < csr.N; v++ {
		if d := csr.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8*8 {
		t.Fatalf("max degree %d barely above mean 8; not skewed", maxDeg)
	}
}

func TestKronBadScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("scale=0 did not panic")
		}
	}()
	GenerateKron(0, 4, 1)
}

// referenceKron is GenerateKron's historical draw loop: one Float64 per
// bit, compared against the R-MAT probabilities, then Intn(64).
func referenceKron(scale, edgeFactor int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, (1<<scale)*edgeFactor)
	for i := range edges {
		var src, dst int32
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < rmatA:
			case r < rmatA+rmatB:
				dst |= 1 << bit
			case r < rmatA+rmatB+rmatC:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges[i] = Edge{Src: src, Dst: dst, Weight: int32(rng.Intn(64) + 1)}
	}
	return edges
}

// TestKronMatchesFloat64Reference: the integer-threshold draws produce
// the historical edge lists, draw for draw.
func TestKronMatchesFloat64Reference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, scale := range []int{1, 2, 3, 5, 8, 11, 14} {
			got, want := GenerateKron(scale, 3, seed), referenceKron(scale, 3, seed)
			if !slices.Equal(got, want) {
				t.Fatalf("scale %d seed %d: GenerateKron differs from the Float64 reference", scale, seed)
			}
		}
	}
}

// TestThresholdsMatchFloat64: each integer threshold sits exactly where
// float64(x)/2^63 crosses its probability.
func TestThresholdsMatchFloat64(t *testing.T) {
	for _, c := range []struct {
		p float64
		t int64
	}{{rmatA, kronA}, {rmatA + rmatB, kronAB}, {rmatA + rmatB + rmatC, kronABC}, {1, kronOne}} {
		for d := int64(-2048); d <= 2048 && d <= math.MaxInt64-c.t; d++ {
			x := c.t + d
			if below := float64(x)/(1<<63) < c.p; below != (x < c.t) {
				t.Fatalf("p=%g: x=%d float test %v, threshold %d", c.p, x, below, c.t)
			}
		}
	}
}

// TestKronCSRMatchesBuildCSR: the packed build equals BuildCSR over
// GenerateKron's edges across scales, edge factors and seeds — every
// offset, destination and weight, so the order of duplicate (src, dst)
// edges with different weights too.
func TestKronCSRMatchesBuildCSR(t *testing.T) {
	check := func(scale, ef int, seed int64) {
		t.Helper()
		got := KronCSR(scale, ef, seed)
		want := BuildCSR(int32(1)<<scale, GenerateKron(scale, ef, seed))
		if !equalCSR(got, want) {
			t.Fatalf("scale %d, edge factor %d, seed %d: KronCSR differs from BuildCSR(GenerateKron)", scale, ef, seed)
		}
	}
	for scale := 1; scale <= 14; scale++ {
		for _, ef := range []int{1, 3, 8} {
			for _, seed := range []int64{1, 42} {
				check(scale, ef, seed)
			}
		}
	}
	check(16, 8, 42) // the quick-scale graph
}

// TestPackedBuildDuplicateWeights: on constructed edge lists full of
// duplicate (src, dst) edges with different weights, at every packable
// scale, packing round-trips the extreme vertex IDs and weights and the
// packed sort permutes the edges exactly as a (Src, Dst) sort of the
// Edge values does. Up to scale 20 the CSR is also built and read back
// through its accessors; a 2^29-vertex CSR is too large to build in a
// test.
func TestPackedBuildDuplicateWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for scale := 1; scale <= maxPackedScale; scale++ {
		edges := constructedEdges(rng, scale, 3000)
		packed := make([]uint64, len(edges))
		for i, e := range edges {
			packed[i] = pack(scale, e.Src, e.Dst, e.Weight)
		}
		want := slices.Clone(edges)
		slices.SortFunc(want, func(a, b Edge) int {
			if c := cmp.Compare(a.Src, b.Src); c != 0 {
				return c
			}
			return cmp.Compare(a.Dst, b.Dst)
		})
		if scale <= 20 {
			checkEdges(t, fmt.Sprintf("scale %d", scale), BuildCSR(int32(1)<<scale, edges), want)
		}
		sortPacked(packed)
		mask := uint64(1)<<scale - 1
		for i, p := range packed {
			got := Edge{Src: int32(p >> (scale + 6)), Dst: int32(p >> 6 & mask), Weight: int32(p&63) + 1}
			if got != want[i] {
				t.Fatalf("scale %d, position %d: packed sort gives %+v, edge sort %+v", scale, i, got, want[i])
			}
		}
	}
}

func TestKronCSRBadScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("scale 30 did not panic")
		}
	}()
	KronCSR(maxPackedScale+1, 1, 1)
}

// constructedEdges draws n edges of a 2^scale-vertex graph whose
// endpoints come from a small pool including 0 and 2^scale-1, so
// (src, dst) pairs repeat, with weights spanning 1..64.
func constructedEdges(rng *rand.Rand, scale, n int) []Edge {
	top := int32(1)<<scale - 1
	pool := []int32{0, top, top / 2, top / 3}
	for i := 0; i < 12; i++ {
		pool = append(pool, rng.Int31n(top+1))
	}
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{
			Src:    pool[rng.Intn(len(pool))],
			Dst:    pool[rng.Intn(len(pool))],
			Weight: int32(rng.Intn(64) + 1),
		}
	}
	edges[0].Weight, edges[1].Weight = 1, 64
	return edges
}

func equalCSR(a, b *CSR) bool {
	return a.N == b.N && a.bits == b.bits && slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.edges, b.edges)
}

// checkEdges requires c's edges, read through Offsets, Dst and Weight,
// to be sorted, an edge list sorted by (Src, Dst).
func checkEdges(t *testing.T, what string, c *CSR, sorted []Edge) {
	t.Helper()
	if c.M() != len(sorted) {
		t.Fatalf("%s: M = %d, want %d", what, c.M(), len(sorted))
	}
	for i, e := range sorted {
		if got := (Edge{Src: e.Src, Dst: c.Dst(int64(i)), Weight: c.Weight(int64(i))}); got != e {
			t.Fatalf("%s: edge %d = %+v, want %+v", what, i, got, e)
		}
		if c.Offsets[e.Src] > int64(i) || c.Offsets[e.Src+1] <= int64(i) {
			t.Fatalf("%s: edge %d outside source %d's range %v", what, i, e.Src, c.Offsets[e.Src:e.Src+2])
		}
	}
}

func TestBuildCSRTiny(t *testing.T) {
	//   0 -> 1 (w2), 0 -> 2 (w5), 1 -> 2 (w1), 3 isolated
	edges := []Edge{{1, 2, 1}, {0, 2, 5}, {0, 1, 2}}
	c := BuildCSR(4, edges)
	if c.M() != 3 {
		t.Fatalf("M = %d", c.M())
	}
	if c.Degree(0) != 2 || c.Degree(1) != 1 || c.Degree(2) != 0 || c.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %v", c.Offsets)
	}
	checkEdges(t, "tiny", c, []Edge{{0, 1, 2}, {0, 2, 5}, {1, 2, 1}})
}

// TestBuildCSRMatchesSortSliceReference pins BuildCSR's edge order —
// weights included, since duplicate (Src, Dst) edges carry different
// weights and their relative order is up to the sort — against the
// historical sort.Slice construction over Kronecker graphs of several
// shapes, up to the quick experiment scale's 2^16 vertices.
func TestBuildCSRMatchesSortSliceReference(t *testing.T) {
	for _, tc := range []struct {
		scale, edgeFactor int
		seed              int64
	}{{3, 4, 1}, {6, 16, 42}, {10, 8, 7}, {12, 2, 43}, {16, 8, 42}} {
		edges := GenerateKron(tc.scale, tc.edgeFactor, tc.seed)
		got := BuildCSR(int32(1)<<tc.scale, edges)

		ref := append([]Edge(nil), edges...)
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].Src != ref[j].Src {
				return ref[i].Src < ref[j].Src
			}
			return ref[i].Dst < ref[j].Dst
		})
		checkEdges(t, fmt.Sprintf("%+v", tc), got, ref)
	}
}

func TestBFSTinyGraph(t *testing.T) {
	// 0 -> 1 -> 2, 0 -> 3; 4 unreachable.
	c := BuildCSR(5, []Edge{{0, 1, 1}, {1, 2, 1}, {0, 3, 1}})
	lv := BFS(c, 0)
	want := []int32{0, 1, 2, 1, Unreached}
	for i := range want {
		if lv[i] != want[i] {
			t.Fatalf("levels = %v, want %v", lv, want)
		}
	}
}

// naive BFS by repeated relaxation, for the property test.
func naiveBFS(c *CSR, src int32) []int32 {
	lv := make([]int32, c.N)
	for i := range lv {
		lv[i] = math.MaxInt32
	}
	lv[src] = 0
	for changed := true; changed; {
		changed = false
		for v := int32(0); v < c.N; v++ {
			if lv[v] == math.MaxInt32 {
				continue
			}
			for e := c.Offsets[v]; e < c.Offsets[v+1]; e++ {
				if w := c.Dst(e); lv[v]+1 < lv[w] {
					lv[w] = lv[v] + 1
					changed = true
				}
			}
		}
	}
	for i := range lv {
		if lv[i] == math.MaxInt32 {
			lv[i] = Unreached
		}
	}
	return lv
}

func TestBFSMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		edges := GenerateKron(6, 4, seed)
		c := BuildCSR(64, edges)
		got := BFS(c, 0)
		want := naiveBFS(c, 0)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSSSPTinyGraph(t *testing.T) {
	// 0 -(5)-> 1, 0 -(2)-> 2, 2 -(2)-> 1: shortest 0->1 is 4 via 2.
	c := BuildCSR(4, []Edge{{0, 1, 5}, {0, 2, 2}, {2, 1, 2}})
	d := SSSP(c, 0)
	if d[0] != 0 || d[1] != 4 || d[2] != 2 || d[3] != -1 {
		t.Fatalf("dist = %v, want [0 4 2 -1]", d)
	}
}

// naive Bellman-Ford for the property test.
func naiveSSSP(c *CSR, src int32) []int64 {
	const inf = int64(1) << 62
	d := make([]int64, c.N)
	for i := range d {
		d[i] = inf
	}
	d[src] = 0
	for round := int32(0); round < c.N; round++ {
		for v := int32(0); v < c.N; v++ {
			if d[v] == inf {
				continue
			}
			for e := c.Offsets[v]; e < c.Offsets[v+1]; e++ {
				if w, nd := c.Dst(e), d[v]+int64(c.Weight(e)); nd < d[w] {
					d[w] = nd
				}
			}
		}
	}
	for i := range d {
		if d[i] == inf {
			d[i] = -1
		}
	}
	return d
}

func TestSSSPMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		edges := GenerateKron(6, 4, seed)
		c := BuildCSR(64, edges)
		got := SSSP(c, 0)
		want := naiveSSSP(c, 0)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPageRankConservesMass(t *testing.T) {
	edges := GenerateKron(10, 8, 3)
	c := BuildCSR(1<<10, edges)
	rank := PageRank(c, 10, 0.85)
	var sum, leaked float64
	for v := int32(0); v < c.N; v++ {
		sum += rank[v]
		if c.Degree(v) == 0 {
			leaked += rank[v]
		}
	}
	// Dangling vertices leak mass each round; the sum must stay within
	// (0, 1] and close to 1 minus the dangling leakage.
	if sum <= 0 || sum > 1.0001 {
		t.Fatalf("rank mass = %g, want in (0, 1]", sum)
	}
	_ = leaked
}

func TestPageRankFavorsHubs(t *testing.T) {
	// Star: everyone points at vertex 0.
	var edges []Edge
	for v := int32(1); v < 50; v++ {
		edges = append(edges, Edge{v, 0, 1})
	}
	c := BuildCSR(50, edges)
	rank := PageRank(c, 20, 0.85)
	for v := int32(1); v < 50; v++ {
		if rank[0] <= rank[v] {
			t.Fatalf("hub rank %g not above leaf rank %g", rank[0], rank[v])
		}
	}
}
