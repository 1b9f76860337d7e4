// Package workload generates the coalesced page-access traces of the
// nine applications the paper evaluates (Table 2): six regular Rodinia /
// BaM kernels and three data-dependent graph workloads over a GAP-Kron
// style Kronecker graph.
//
// Traces are algorithm-driven: each generator walks the actual loop nest
// of its application over a dataset sized relative to the memory tiers,
// so reuse percentages and Remaining-Reuse-Distance distributions are
// emergent rather than hard-coded. The paper's absolute capacities
// (Tier-1 16 GB, Tier-2 64 GB, datasets up to terabytes) are scaled down
// uniformly; every placement decision GMT makes depends only on the
// ratios (oversubscription factor, Tier-2:Tier-1), which scaling
// preserves.
package workload

import (
	"slices"

	"github.com/gmtsim/gmt/internal/gpu"
)

// Scale ties workload sizes to the memory hierarchy under test.
type Scale struct {
	// Tier1Pages and Tier2Pages are the capacities of GPU and host
	// memory in 64 KiB pages.
	Tier1Pages int
	Tier2Pages int
	// Oversubscription is the working set size as a multiple of
	// Tier1Pages+Tier2Pages (the paper's footnote 2; default 2).
	Oversubscription float64
	// DatasetSeed seeds dataset synthesis: the Kronecker graph shared
	// by the graph applications and the KV-serving request mix. Zero
	// means the historical default (42), so the zero value reproduces
	// every previously generated dataset bit-for-bit. Experiment
	// fingerprints include it, so varying the seed cannot alias
	// memoized results.
	DatasetSeed int64
}

// DefaultScale is the paper's default configuration (Tier-2 = 4x Tier-1,
// oversubscription 2) at 1/256 of the paper's capacities: Tier-1 16 GB ->
// 1024 pages.
func DefaultScale() Scale {
	return Scale{Tier1Pages: 1024, Tier2Pages: 4096, Oversubscription: 2}
}

// CombinedPages reports Tier1+Tier2 capacity.
func (s Scale) CombinedPages() int { return s.Tier1Pages + s.Tier2Pages }

// WorkingSetPages reports the target dataset footprint.
func (s Scale) WorkingSetPages() int {
	return int(s.Oversubscription * float64(s.CombinedPages()))
}

// datasetSeed resolves the effective dataset seed (zero -> 42).
func (s Scale) datasetSeed() int64 {
	if s.DatasetSeed == 0 {
		return 42
	}
	return s.DatasetSeed
}

// Workload produces a deterministic access trace over its dataset's
// pages (page IDs in [0, Pages())).
type Workload interface {
	Name() string
	// Pages reports the dataset footprint in 64 KiB pages.
	Pages() int64
	// Trace generates the full coalesced access trace. Generators are
	// deterministic: repeated calls return equal traces.
	Trace() []gpu.Access
}

// Stream wraps a workload trace as a gpu.Stream.
func Stream(w Workload) gpu.Stream {
	return &gpu.SliceStream{Trace: w.Trace()}
}

// Names of the nine applications, in the paper's Table 2 order.
var Names = []string{
	"LavaMD", "Pathfinder", "BFS", "MultiVectorAdd", "Srad",
	"Backprop", "PageRank", "SSSP", "Hotspot",
}

// All builds the full nine-application suite at the given scale. The
// graph applications share one generated Kronecker graph.
func All(s Scale) []Workload {
	gs := NewGraphSet(s, s.datasetSeed())
	return []Workload{
		NewLavaMD(s),
		NewPathfinder(s),
		NewBFS(gs),
		NewMultiVectorAdd(s),
		NewSrad(s),
		NewBackprop(s),
		NewPageRank(gs),
		NewSSSP(gs),
		NewHotspot(s),
	}
}

// Regular builds only the six non-graph applications (used by the paper's
// Figure 13 experiment).
func Regular(s Scale) []Workload {
	return []Workload{
		NewLavaMD(s),
		NewPathfinder(s),
		NewMultiVectorAdd(s),
		NewSrad(s),
		NewBackprop(s),
		NewHotspot(s),
	}
}

// traceBuilder is the generators' emitter. It appends into chunks that
// double from minChunk to maxChunk accesses and copies them once, in
// trace, into a slice of exactly the trace's length: growing one slice
// by append allocates several times its final size on the way. In
// exactTrace's counting pass it only counts.
type traceBuilder struct {
	full [][]gpu.Access
	cur  []gpu.Access
	// counting makes emit count into n and keep nothing; cur stays
	// empty, so every emit takes the growth branch that checks it.
	counting bool
	n        int
}

const (
	minChunk = 4 << 10
	maxChunk = 64 << 10
)

func (b *traceBuilder) emit(a gpu.Access) {
	if len(b.cur) == cap(b.cur) {
		if b.counting {
			b.n++
			return
		}
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]gpu.Access, 0, min(max(2*cap(b.cur), minChunk), maxChunk))
	}
	b.cur = append(b.cur, a)
}

func (b *traceBuilder) read(p int64)  { b.emit(gpu.Access{Page: p}) }
func (b *traceBuilder) write(p int64) { b.emit(gpu.Access{Page: p, Write: true}) }
func (b *traceBuilder) barrier()      { b.emit(gpu.Barrier) }

// trace returns everything emitted, in one slice of exactly its length
// (nil when nothing was).
func (b *traceBuilder) trace() []gpu.Access {
	return slices.Concat(append(b.full, b.cur)...)
}

// exactTrace returns what gen emits, allocating the trace once and
// nothing else: gen runs into a counting builder, then into one slice
// of exactly that length (nil when it emits nothing). gen must emit the
// same sequence every time, as the regular generators do (pure loop
// nests over their fields). The graph generators and KVServe keep the
// chunked builder: their traversals and random draws cost far more
// than the chunks' copy, so a second pass would cost more than it
// saves.
func exactTrace(gen func(*traceBuilder)) []gpu.Access {
	count := traceBuilder{counting: true}
	gen(&count)
	if count.n == 0 {
		return nil
	}
	b := traceBuilder{cur: make([]gpu.Access, 0, count.n)}
	gen(&b)
	if b.full != nil || len(b.cur) != count.n {
		panic("workload: a generator emitted a different trace on its second pass")
	}
	return b.cur
}
