package workload

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/graph"
	"github.com/gmtsim/gmt/internal/tier"
)

// elemsPerPage is how many graph-array elements map to one 64 KiB page
// after accounting for warp coalescing: a warp's 32 consecutive lanes and
// the GPU's L2 absorb most same-page element touches, so the generators
// emit one access per page crossing plus sampled random gathers (see
// gatherStride). The compression keeps graph generation tractable while
// preserving the page-level access structure.
const elemsPerPage = 256

// gatherStride samples one data-dependent gather (a random read of a
// value page) per this many edges scanned.
const gatherStride = 96

// GraphSet is a generated Kronecker graph laid out in page space:
// [offsets][values][edges]. The three graph workloads share one set.
//
// Generation is lazy: the Kronecker edge list and CSR are built on
// first use (any Pages/Trace/CSR call), and concurrent first users
// block until the single build completes. This lets a parallel
// experiment harness schedule the build — the most expensive
// non-simulation step — as one job overlapping other trace generation
// instead of paying it inside suite construction.
type GraphSet struct {
	Scale Scale
	seed  int64

	once        sync.Once
	csr         *graph.CSR
	offsetPages int64
	valuePages  int64
	edgePages   int64
}

// NewGraphSet prepares a GAP-Kron style graph sized so vertex arrays
// take ≈20% and the edge list ≈80% of the working set. The graph itself
// is generated on first use.
func NewGraphSet(s Scale, seed int64) *GraphSet {
	return &GraphSet{Scale: s, seed: seed}
}

// build generates the graph exactly once; safe for concurrent callers.
func (g *GraphSet) build() {
	g.once.Do(func() {
		w := int64(g.Scale.WorkingSetPages())
		targetV := w / 10 * elemsPerPage
		scale := 1
		for int64(1)<<(scale+1) <= targetV {
			scale++
		}
		v := int64(1) << scale
		targetE := w * 8 / 10 * elemsPerPage
		ef := int(targetE / v)
		if ef < 1 {
			ef = 1
		}
		g.csr = graph.KronCSR(scale, ef, g.seed)
		g.offsetPages = (v + 1 + elemsPerPage - 1) / elemsPerPage
		g.valuePages = (v + elemsPerPage - 1) / elemsPerPage
		g.edgePages = (int64(g.csr.M()) + elemsPerPage - 1) / elemsPerPage
	})
}

// CSR reports the generated graph, building it on first use.
func (g *GraphSet) CSR() *graph.CSR { g.build(); return g.csr }

// OffsetPages reports the page count of the CSR offset array.
func (g *GraphSet) OffsetPages() int64 { g.build(); return g.offsetPages }

// ValuePages reports the page count of the per-vertex value array.
func (g *GraphSet) ValuePages() int64 { g.build(); return g.valuePages }

// EdgePages reports the page count of the edge list.
func (g *GraphSet) EdgePages() int64 { g.build(); return g.edgePages }

// Pages reports the total page footprint.
func (g *GraphSet) Pages() int64 {
	g.build()
	return g.offsetPages + g.valuePages + g.edgePages
}

func (g *GraphSet) offsetPage(v int32) int64 { return int64(v) / elemsPerPage }

func (g *GraphSet) valuePage(v int32) int64 {
	return g.offsetPages + int64(v)/elemsPerPage
}

func (g *GraphSet) edgePage(e int64) int64 {
	return g.offsetPages + g.valuePages + e/elemsPerPage
}

// coalescer deduplicates consecutive same-page accesses within one
// array's sequential scan (each array has its own hardware-held cursor:
// the warp's registers and L2 absorb repeat touches of the current
// page). Random gathers bypass coalescing.
type coalescer struct {
	b    *traceBuilder
	last int64
}

func (c *coalescer) read(p int64) {
	if p != c.last {
		c.last = p
		c.b.read(p)
	}
}

// PageRankWorkload sweeps the full edge list every iteration (Tier-3
// biased reuse at distance ≈ the whole footprint) while gathering
// neighbor ranks from the hot value pages (Table 2: reuse ≈90%, RRD 94%
// Tier-3).
type PageRankWorkload struct {
	gs    *GraphSet
	Iters int
	// Barriers emits a kernel-wide barrier between iterations.
	Barriers bool
}

// NewPageRank builds the PageRank workload over gs.
func NewPageRank(gs *GraphSet) *PageRankWorkload {
	return &PageRankWorkload{gs: gs, Iters: 2}
}

// Name implements Workload.
func (w *PageRankWorkload) Name() string { return "PageRank" }

// Pages implements Workload.
func (w *PageRankWorkload) Pages() int64 { return w.gs.Pages() }

// Trace implements Workload.
func (w *PageRankWorkload) Trace() []gpu.Access {
	gs := w.gs
	gs.build()
	c := gs.csr
	b := &traceBuilder{}
	for it := 0; it < w.Iters; it++ {
		if w.Barriers && it > 0 {
			b.barrier()
		}
		offs := coalescer{b: b, last: -1}
		edges := coalescer{b: b, last: -1}
		for v := int32(0); v < c.N; v++ {
			offs.read(gs.offsetPage(v))
			off := c.Offsets[v]
			deg := c.Degree(v)
			for i := int64(0); i < deg; i++ {
				edges.read(gs.edgePage(off + i))
				if (off+i)%gatherStride == 0 {
					b.read(gs.valuePage(c.Dst[off+i]))
				}
			}
			if int64(v)%elemsPerPage == 0 {
				b.write(gs.valuePage(v))
			}
		}
	}
	return b.out
}

// BFSWorkload expands frontiers level by level: each edge page is
// touched in the level its source joins the frontier, and the vertex
// value (distance) pages are revisited across levels at Tier-2-range
// distances (Table 2: reuse ≈33%, Tier-2 bias).
type BFSWorkload struct {
	gs     *GraphSet
	Source int32
	// Barriers emits a kernel-wide barrier between frontier levels.
	Barriers bool
}

// NewBFS builds the BFS workload over gs.
func NewBFS(gs *GraphSet) *BFSWorkload { return &BFSWorkload{gs: gs} }

// Name implements Workload.
func (w *BFSWorkload) Name() string { return "BFS" }

// Pages implements Workload.
func (w *BFSWorkload) Pages() int64 { return w.gs.Pages() }

// Trace implements Workload.
func (w *BFSWorkload) Trace() []gpu.Access {
	gs := w.gs
	gs.build()
	c := gs.csr
	b := &traceBuilder{}
	level := make([]int32, c.N)
	for i := range level {
		level[i] = graph.Unreached
	}
	level[w.Source] = 0
	frontier := []int32{w.Source}
	for depth := int32(1); len(frontier) > 0; depth++ {
		if w.Barriers && depth > 1 {
			b.barrier()
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		offs := coalescer{b: b, last: -1}
		edges := coalescer{b: b, last: -1}
		var next []int32
		for _, v := range frontier {
			offs.read(gs.offsetPage(v))
			off := c.Offsets[v]
			deg := c.Degree(v)
			for i := int64(0); i < deg; i++ {
				edges.read(gs.edgePage(off + i))
				dst := c.Dst[off+i]
				if (off+i)%gatherStride == 0 {
					b.read(gs.valuePage(dst)) // status check gather
				}
				if level[dst] == graph.Unreached {
					level[dst] = depth
					next = append(next, dst)
					if int64(dst)%8 == 0 {
						b.write(gs.valuePage(dst))
					}
				}
			}
		}
		frontier = next
	}
	return b.out
}

// SSSPWorkload relaxes frontiers over several Bellman-Ford rounds: edge
// pages are rescanned in later rounds, pushing reuse distances into the
// Tier-3 range while keeping reuse high (Table 2: ≈80%, 97% Tier-3).
type SSSPWorkload struct {
	gs        *GraphSet
	Source    int32
	MaxRounds int
	// Barriers emits a kernel-wide barrier between relaxation rounds.
	Barriers bool
}

// NewSSSP builds the SSSP workload over gs.
func NewSSSP(gs *GraphSet) *SSSPWorkload {
	return &SSSPWorkload{gs: gs, MaxRounds: 6}
}

// Name implements Workload.
func (w *SSSPWorkload) Name() string { return "SSSP" }

// Pages implements Workload.
func (w *SSSPWorkload) Pages() int64 { return w.gs.Pages() }

// Trace implements Workload.
func (w *SSSPWorkload) Trace() []gpu.Access {
	gs := w.gs
	gs.build()
	c := gs.csr
	b := &traceBuilder{}
	const inf = int64(1) << 62
	dist := make([]int64, c.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[w.Source] = 0
	frontier := []int32{w.Source}
	inFrontier := make([]bool, c.N)
	for round := 0; round < w.MaxRounds && len(frontier) > 0; round++ {
		if w.Barriers && round > 0 {
			b.barrier()
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		offs := coalescer{b: b, last: -1}
		edges := coalescer{b: b, last: -1}
		var next []int32
		for _, v := range frontier {
			inFrontier[v] = false
			offs.read(gs.offsetPage(v))
			off := c.Offsets[v]
			deg := c.Degree(v)
			for i := int64(0); i < deg; i++ {
				edges.read(gs.edgePage(off + i))
				dst := c.Dst[off+i]
				if (off+i)%gatherStride == 0 {
					b.read(gs.valuePage(dst))
				}
				if nd := dist[v] + int64(c.Weight[off+i]); nd < dist[dst] {
					dist[dst] = nd
					if !inFrontier[dst] {
						inFrontier[dst] = true
						next = append(next, dst)
						if int64(dst)%8 == 0 {
							b.write(gs.valuePage(dst))
						}
					}
				}
			}
		}
		frontier = next
	}
	return b.out
}

// ZipfStream is the §2.3 microbenchmark: warps draw page addresses from
// a zipf distribution whose skew controls how many distinct pages a
// transfer batch contains (Figure 6b's x-axis).
type ZipfStream struct {
	weightsCDF []float64
	rng        *rand.Rand
	pages      int64
	remaining  int64
	write      bool
}

// NewZipfStream draws n accesses over the given page count with the
// given skew (0 = uniform, 1 = strongly skewed).
func NewZipfStream(pages int64, skew float64, n int64, seed int64) *ZipfStream {
	z := &ZipfStream{
		rng:       rand.New(rand.NewSource(seed)),
		pages:     pages,
		remaining: n,
	}
	z.weightsCDF = make([]float64, pages)
	sum := 0.0
	for i := int64(0); i < pages; i++ {
		sum += 1.0 / math.Pow(float64(i+1), skew)
		z.weightsCDF[i] = sum
	}
	for i := range z.weightsCDF {
		z.weightsCDF[i] /= sum
	}
	return z
}

// Next implements gpu.Stream.
func (z *ZipfStream) Next() (gpu.Access, bool) {
	if z.remaining <= 0 {
		return gpu.Access{}, false
	}
	z.remaining--
	r := z.rng.Float64()
	lo, hi := 0, len(z.weightsCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.weightsCDF[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return gpu.Access{Page: tier.PageID(lo)}, true
}
