// Package reuse implements GMT-Reuse's prediction machinery (paper
// §2.1.3): virtual-timestamp distances (VTD) as a cheap proxy for reuse
// distance, an exact reuse-distance tracker ("tree-based method") used by
// the host-side sampling thread, ordinary-least-squares regression
// mapping VTD→RD, the RRD equivalence-class classifier of Eq. 1, and the
// 3-state Markov history predictor of Figure 5.
package reuse

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/tier"
)

// DistanceTracker computes, online, the exact reuse distance (number of
// distinct pages accessed since the previous access of the same page) and
// the VTD (number of accesses, unique or not, since the previous access).
//
// It is the model of the dedicated CPU thread that consumes GPU-pushed
// samples and converts VTDs into true reuse distances.
type DistanceTracker struct {
	// last holds the most recent access position per page, dense-indexed
	// by page ID per the bounded-page-ID contract (-1 = unseen).
	last []int64
	bit  fenwick
	pos  int
	// pages is one past the highest page ID stored in last: the extent
	// Reset must clear.
	pages int
}

// NewDistanceTracker returns an empty tracker.
func NewDistanceTracker() *DistanceTracker {
	return &DistanceTracker{}
}

// NewDistanceTrackerFor returns an empty tracker sized for a stream of n
// accesses over page IDs below pages, so an offline pass over a whole
// trace never grows its tables.
func NewDistanceTrackerFor(pages, n int) *DistanceTracker {
	t := &DistanceTracker{}
	t.grow(pages - 1)
	t.bit.grow(n)
	return t
}

// Observe records an access to p and reports its VTD and reuse distance.
// ok is false on the first access to p (no previous access exists). It
// panics on a negative page ID: the runtime's sampler sees only memory
// accesses, and workload.Analyze skips barriers.
func (t *DistanceTracker) Observe(p tier.PageID) (vtd, rd int64, ok bool) {
	if p < 0 {
		panic(fmt.Sprintf("reuse: negative page id %d", p))
	}
	cur := t.pos
	t.pos++
	lp, seen := t.lookup(p)
	if seen {
		vtd = int64(cur - lp)
		// Distinct pages accessed strictly between the two accesses of
		// p: pages whose most recent access lies in (lp, cur).
		rd = t.bit.RangeSum(lp+1, cur-1)
		ok = true
		t.bit.Add(lp, -1)
	}
	t.bit.Add(cur, 1)
	t.store(p, cur)
	return vtd, rd, ok
}

// lookup reports p's most recent access position.
func (t *DistanceTracker) lookup(p tier.PageID) (int, bool) {
	if int64(p) >= int64(len(t.last)) {
		return 0, false
	}
	lp := t.last[p]
	return int(lp), lp >= 0
}

// store records p's access position.
func (t *DistanceTracker) store(p tier.PageID, cur int) {
	if int64(p) >= int64(len(t.last)) {
		t.grow(int(p))
	}
	t.last[p] = int64(cur)
	if int(p) >= t.pages {
		t.pages = int(p) + 1
	}
}

// Reset empties the tracker for a new stream, keeping its capacity. It
// touches only what the last stream used — the position table up to the
// highest page stored and the tree up to the last position — not the
// capacity retained from longer streams before it.
func (t *DistanceTracker) Reset() {
	for i := range t.last[:t.pages] {
		t.last[i] = -1
	}
	t.pages = 0
	t.bit.clear(t.pos)
	t.pos = 0
}

// grow widens the dense position table to cover page ID p.
//
//gmt:coldpath
func (t *DistanceTracker) grow(p int) {
	n := 2 * len(t.last)
	if n < 64 {
		n = 64
	}
	if n <= p {
		n = p + 1
	}
	nv := make([]int64, n)
	copy(nv, t.last)
	for i := len(t.last); i < n; i++ {
		nv[i] = -1
	}
	t.last = nv
}

// Accesses reports how many accesses have been observed.
func (t *DistanceTracker) Accesses() int { return t.pos }

// DistinctSince reports how many distinct pages the accesses from
// position pos through the last one observed touched.
func (t *DistanceTracker) DistinctSince(pos int) int64 {
	return t.bit.RangeSum(pos, t.pos-1)
}

// RangeQuery is a half-open distinct-count question over an access trace:
// how many distinct pages appear in positions (From, To]?
type RangeQuery struct {
	From, To int
}

// DistinctInRanges answers distinct-page counts for many (From, To]
// windows over trace in O((N+Q) log N): one sweep of a DistanceTracker
// sized to the trace, answering each query with DistinctSince at its
// right end. Queries are chained by right end in two arrays, not a map.
// It is the offline form of the question workload.Analyze asks online
// at each evicted page's next access: the RRD of an eviction at
// position e whose page is next accessed at position n is the distinct
// count in (e-1, n-1].
func DistinctInRanges(trace []tier.PageID, queries []RangeQuery) []int64 {
	ans := make([]int64, len(queries))
	// head[t] is 1 + the last query ending at t; link[i] is 1 + the
	// query before i on its chain; 0 ends a chain.
	head := make([]int32, len(trace))
	link := make([]int32, len(queries))
	for i, q := range queries {
		if q.To >= len(trace) || q.To < 0 {
			ans[i] = -1
			continue
		}
		link[i], head[q.To] = head[q.To], int32(i+1)
	}
	pages := 0
	for _, p := range trace {
		pages = max(pages, int(p)+1)
	}
	tr := NewDistanceTrackerFor(pages, len(trace))
	for t, p := range trace {
		tr.Observe(p)
		for qi := head[t]; qi != 0; qi = link[qi-1] {
			ans[qi-1] = tr.DistinctSince(queries[qi-1].From + 1)
		}
	}
	return ans
}
