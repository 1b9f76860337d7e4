// Package graph provides the graph substrate for the paper's
// data-dependent workloads (BFS, PageRank, SSSP on GAP-Kron): a Kronecker
// (R-MAT) edge generator in the style of the GAP benchmark suite, CSR
// construction, and reference host-side implementations of the three
// algorithms used both for correctness checks and to drive the page
// access generators.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// RMAT partition probabilities used by GAP-Kron.
const (
	rmatA = 0.57
	rmatB = 0.19
	rmatC = 0.19
)

// Edge is a directed edge with a small integer weight (SSSP).
type Edge struct {
	Src, Dst int32
	Weight   int32
}

// GenerateKron produces an R-MAT/Kronecker edge list with 2^scale
// vertices and edgeFactor*2^scale edges, deterministically from seed.
// Self-loops are permitted (as in GAP); duplicate edges are kept, which
// preserves the skewed degree distribution.
func GenerateKron(scale, edgeFactor int, seed int64) []Edge {
	if scale < 1 || scale > 30 {
		panic("graph: scale out of range")
	}
	k := newKron(scale, seed)
	edges := make([]Edge, (1<<scale)*edgeFactor)
	for i := range edges {
		src, dst, w := k.next()
		edges[i] = Edge{Src: src, Dst: dst, Weight: w}
	}
	return edges
}

// Integer forms of the R-MAT thresholds and of Float64's resampling
// bound: for a draw x of Int63, float64(x)/2^63 < p exactly when
// x < thresholdOf(p), and Float64 resamples exactly when x >= kronOne.
var (
	kronA   = thresholdOf(rmatA)
	kronAB  = thresholdOf(rmatA + rmatB)
	kronABC = thresholdOf(rmatA + rmatB + rmatC)
	kronOne = thresholdOf(1)
)

// thresholdOf returns the least x >= 0 with float64(x)/2^63 >= p. The
// division is exact, and float64(x) never decreases as x grows, so a
// binary search over x finds the boundary that rounding puts it at.
func thresholdOf(p float64) int64 {
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// kron draws R-MAT edges. It consumes the seeded stream exactly as a
// rand.Rand drawing Float64 once per bit and Intn(64) per weight would:
// the per-bit quadrant draws read the source directly, compared against
// integer thresholds, and a draw Float64 would resample is resampled.
type kron struct {
	scale int
	src   rand.Source
	rng   *rand.Rand
}

func newKron(scale int, seed int64) *kron {
	src := rand.NewSource(seed)
	return &kron{scale: scale, src: src, rng: rand.New(src)}
}

// next draws one edge: one quadrant per bit, from the lowest, then the
// weight. Quadrant A sets neither bit, B the dst bit, C the src bit and
// D both; the three threshold tests set them without branches.
func (k *kron) next() (src, dst, weight int32) {
	for bit := 0; bit < k.scale; bit++ {
		x := k.src.Int63()
		for x >= kronOne {
			x = k.src.Int63()
		}
		a, ab, abc := atLeast(x, kronA), atLeast(x, kronAB), atLeast(x, kronABC)
		src |= ab << bit
		dst |= (a ^ ab ^ abc) << bit
	}
	return src, dst, int32(k.rng.Intn(64) + 1)
}

// atLeast is 1 when x >= t and 0 otherwise, for x, t in [0, 2^63).
func atLeast(x, t int64) int32 {
	return int32(1 + (x-t)>>63)
}

// maxPackedScale is the largest scale a CSR holds: an edge packs into 64
// bits as src, dst and weight-1 in scale, scale and 6 bits.
const maxPackedScale = 29

// KronCSR builds the CSR of GenerateKron(scale, edgeFactor, seed) —
// equal to BuildCSR over that edge list — without materializing the
// edge list: each edge is drawn straight into its packed form. The
// packed form holds scales up to 29 (maxPackedScale), and KronCSR
// panics above that: workload.GraphSet would need a working set above
// about 42 million pages to get there.
func KronCSR(scale, edgeFactor int, seed int64) *CSR {
	if scale < 1 || scale > maxPackedScale {
		panic(fmt.Sprintf("graph: KronCSR packs scales 1..%d, got %d", maxPackedScale, scale))
	}
	k := newKron(scale, seed)
	packed := make([]uint64, (1<<scale)*edgeFactor)
	for i := range packed {
		src, dst, w := k.next()
		packed[i] = pack(scale, src, dst, w)
	}
	return packedCSR(scale, int32(1)<<scale, packed)
}

// pack encodes one edge of a graph whose vertex IDs fit in bits bits:
// src<<(bits+6) | dst<<6 | (weight-1).
func pack(bits int, src, dst, weight int32) uint64 {
	return uint64(src)<<(bits+6) | uint64(dst)<<6 | uint64(weight-1)
}

// sortPacked sorts packed edges in place by (src, dst), comparing only
// those bits. The sort is slices.SortFunc's pdqsort, whose moves depend
// only on comparison outcomes and the length, so it permutes the edges
// exactly as sorting Edge values by (Src, Dst) does, down to the order
// of duplicate (src, dst) edges with different weights.
func sortPacked(packed []uint64) {
	slices.SortFunc(packed, func(a, b uint64) int {
		return cmp.Compare(a>>6, b>>6)
	})
}

// packedCSR sorts an n-vertex graph's packed edges, whose vertex IDs
// fit in bits bits, and builds the CSR that keeps them.
func packedCSR(bits int, n int32, packed []uint64) *CSR {
	sortPacked(packed)
	c := &CSR{N: n, Offsets: make([]int64, n+1), edges: packed, bits: bits}
	for _, e := range packed {
		c.Offsets[e>>(bits+6)+1]++
	}
	for v := int32(1); v <= n; v++ {
		c.Offsets[v] += c.Offsets[v-1]
	}
	return c
}

// CSR is a compressed sparse row adjacency structure. Its adjacency is
// the edges themselves, sorted by (source, destination) and packed as
// pack packs them, so the graph is held once; Dst and Weight read an
// edge's fields.
type CSR struct {
	N       int32
	Offsets []int64 // len N+1: vertex v's edges are [Offsets[v], Offsets[v+1])
	edges   []uint64
	bits    int // width of a vertex ID in edges
}

// BuildCSR sorts edges by (Src, Dst) and builds the CSR of an n-vertex
// graph from them. It panics unless n is at most 2^29, every endpoint
// lies in [0, n) and every weight in [1, 64], the range GenerateKron
// draws.
func BuildCSR(n int32, edges []Edge) *CSR {
	width := bits.Len32(uint32(max(n, 1) - 1))
	if width > maxPackedScale {
		panic(fmt.Sprintf("graph: BuildCSR packs up to 2^%d vertices, got %d", maxPackedScale, n))
	}
	packed := make([]uint64, len(edges))
	for i, e := range edges {
		if uint32(e.Src) >= uint32(n) || uint32(e.Dst) >= uint32(n) || e.Weight < 1 || e.Weight > 64 {
			panic(fmt.Sprintf("graph: edge %+v out of range for %d vertices and weights 1..64", e, n))
		}
		packed[i] = pack(width, e.Src, e.Dst, e.Weight)
	}
	return packedCSR(width, n, packed)
}

// M reports the edge count.
func (c *CSR) M() int { return len(c.edges) }

// Degree reports vertex v's out-degree.
func (c *CSR) Degree(v int32) int64 { return c.Offsets[v+1] - c.Offsets[v] }

// Dst reports edge e's destination.
func (c *CSR) Dst(e int64) int32 { return int32(c.edges[e] >> 6 & (1<<c.bits - 1)) }

// Weight reports edge e's weight.
func (c *CSR) Weight(e int64) int32 { return int32(c.edges[e]&63) + 1 }

// Unreached marks vertices BFS/SSSP never reached.
const Unreached = int32(-1)

// BFS returns per-vertex levels from src (Unreached where unreachable).
func BFS(c *CSR, src int32) []int32 {
	level := make([]int32, c.N)
	for i := range level {
		level[i] = Unreached
	}
	level[src] = 0
	frontier := []int32{src}
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []int32
		for _, v := range frontier {
			for e := c.Offsets[v]; e < c.Offsets[v+1]; e++ {
				if w := c.Dst(e); level[w] == Unreached {
					level[w] = depth
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return level
}

// PageRank runs iters rounds of synchronous PageRank with the given
// damping factor and returns the final scores.
func PageRank(c *CSR, iters int, damping float64) []float64 {
	n := int(c.N)
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = base
		}
		for v := int32(0); v < c.N; v++ {
			d := c.Degree(v)
			if d == 0 {
				continue
			}
			share := damping * rank[v] / float64(d)
			for e := c.Offsets[v]; e < c.Offsets[v+1]; e++ {
				next[c.Dst(e)] += share
			}
		}
		rank, next = next, rank
	}
	return rank
}

// SSSP runs frontier-based Bellman-Ford from src and returns distances
// (Unreached encoded as a negative value in the int64 result).
func SSSP(c *CSR, src int32) []int64 {
	const inf = int64(1) << 62
	dist := make([]int64, c.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	frontier := []int32{src}
	inFrontier := make([]bool, c.N)
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			inFrontier[v] = false
			for e := c.Offsets[v]; e < c.Offsets[v+1]; e++ {
				w := c.Dst(e)
				if nd := dist[v] + int64(c.Weight(e)); nd < dist[w] {
					dist[w] = nd
					if !inFrontier[w] {
						inFrontier[w] = true
						next = append(next, w)
					}
				}
			}
		}
		frontier = next
	}
	for i, d := range dist {
		if d == inf {
			dist[i] = -1
		}
	}
	return dist
}
