// Package reuse implements GMT-Reuse's prediction machinery (paper
// §2.1.3): virtual-timestamp distances (VTD) as a cheap proxy for reuse
// distance, an exact reuse-distance tracker ("tree-based method") used by
// the host-side sampling thread, ordinary-least-squares regression
// mapping VTD→RD, the RRD equivalence-class classifier of Eq. 1, and the
// 3-state Markov history predictor of Figure 5.
package reuse

import "github.com/gmtsim/gmt/internal/tier"

// DistanceTracker computes, online, the exact reuse distance (number of
// distinct pages accessed since the previous access of the same page) and
// the VTD (number of accesses, unique or not, since the previous access).
//
// It is the model of the dedicated CPU thread that consumes GPU-pushed
// samples and converts VTDs into true reuse distances.
type DistanceTracker struct {
	// last holds the most recent access position per page, dense-indexed
	// by page ID per the bounded-page-ID contract (-1 = unseen); the rare
	// negative ID (e.g. a barrier marker fed by an offline analysis)
	// falls back to lastNeg.
	last    []int64
	lastNeg map[tier.PageID]int
	bit     fenwick
	pos     int
	// pages is one past the highest page ID stored in last: the extent
	// Reset must clear.
	pages int
}

// NewDistanceTracker returns an empty tracker.
func NewDistanceTracker() *DistanceTracker {
	return &DistanceTracker{}
}

// Observe records an access to p and reports its VTD and reuse distance.
// ok is false on the first access to p (no previous access exists).
func (t *DistanceTracker) Observe(p tier.PageID) (vtd, rd int64, ok bool) {
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
	if p < 0 {
		lp, seen := t.lastNeg[p]
		return lp, seen
	}
	if int64(p) >= int64(len(t.last)) {
		return 0, false
	}
	lp := t.last[p]
	return int(lp), lp >= 0
}

// store records p's access position.
func (t *DistanceTracker) store(p tier.PageID, cur int) {
	if p < 0 {
		if t.lastNeg == nil {
			t.lastNeg = make(map[tier.PageID]int)
		}
		t.lastNeg[p] = cur
		return
	}
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
	clear(t.lastNeg)
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

// RangeQuery is a half-open distinct-count question over an access trace:
// how many distinct pages appear in positions (From, To]?
type RangeQuery struct {
	From, To int
}

// DistinctInRanges answers distinct-page counts for many (From, To]
// windows over trace in O((N+Q) log N). GMT's experiment drivers use it
// to compute actual Remaining Reuse Distances at Tier-1 eviction points
// (Figures 4b, 4c, and 7): the RRD of an eviction at position e whose
// page is next accessed at position n is the distinct count in (e, n].
func DistinctInRanges(trace []tier.PageID, queries []RangeQuery) []int64 {
	ans := make([]int64, len(queries))
	// Bucket queries by right endpoint.
	byRight := make(map[int][]int)
	for i, q := range queries {
		if q.To >= len(trace) || q.To < 0 {
			ans[i] = -1
			continue
		}
		byRight[q.To] = append(byRight[q.To], i)
	}
	var bit fenwick
	last := make(map[tier.PageID]int, len(trace)/4+1)
	for t, p := range trace {
		if lp, seen := last[p]; seen {
			bit.Add(lp, -1)
		}
		bit.Add(t, 1)
		last[p] = t
		for _, qi := range byRight[t] {
			q := queries[qi]
			ans[qi] = bit.RangeSum(q.From+1, q.To)
		}
	}
	return ans
}
