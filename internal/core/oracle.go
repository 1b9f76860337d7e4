package core

import (
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// PolicyOracle: offline Belady-style management with perfect future
// knowledge, the upper bound GMT-Reuse approximates (§2.1.3: "one
// should replace the page whose next reference is furthest in the
// future"). The oracle
//
//   - evicts from Tier-1 the resident whose next use is furthest (dead
//     pages first),
//   - discards victims that are never used again,
//   - places returning victims in Tier-2, displacing the Tier-2
//     resident with the furthest next use when full — but only if the
//     incoming page returns sooner.
//
// Victim selection reads one max-heap of (next use, page) entries per
// tier instead of scanning the residents. Every Tier-1 insert, Tier-2
// insert and next-use change of a Tier-1 resident pushes an entry, so
// every resident has an entry carrying its current next use; entries
// left behind by removals and superseded next uses are dropped lazily
// when they reach the top. The heap orders exactly like
// furthest's scan, ties breaking on page ID, so runs stay deterministic
// and byte-identical to the scan (furthest remains the reference, and
// -tags gmtinvariants builds assert the two agree on every pick).

// OracleFuture derives Config.Future for a run of trace, as one kernel
// or split into consecutive kernels: the pages the runtime will see, in
// order. The runtime indexes the future once per memory access, and
// barrier tokens are handled by the GPU and never reach it, so they are
// dropped.
func OracleFuture(trace []gpu.Access) []tier.PageID {
	future := make([]tier.PageID, 0, len(trace))
	for _, a := range trace {
		if !a.IsBarrier() {
			future = append(future, a.Page)
		}
	}
	return future
}

// oracleDead is the key of a page that is never used again: further
// than any real access index.
const oracleDead = int64(1) << 62

// oracleStale bounds a heap's size at oracleStale entries per resident
// (about four stale entries each) before it is rebuilt from its store.
const oracleStale = 5

// oracleKey maps a next use to its heap key (dead pages sort furthest).
func oracleKey(nextUse int64) int64 {
	if nextUse < 0 {
		return oracleDead
	}
	return nextUse
}

// oracleEntry is one eviction candidate: a page and its key at push
// time.
type oracleEntry struct {
	use  int64
	page tier.PageID
}

// before reports whether a is the better victim: later use first, ties
// to the smaller page ID — furthest's order.
func (a oracleEntry) before(b oracleEntry) bool {
	if a.use != b.use {
		return a.use > b.use
	}
	return a.page < b.page
}

// oracleHeap is a binary max-heap of candidates under before.
type oracleHeap []oracleEntry

func (h *oracleHeap) push(e oracleEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !s[i].before(s[up]) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
}

// pop removes the top entry.
func (h *oracleHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.down(0)
}

func (h oracleHeap) down(i int) {
	for {
		best := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// oracleAdvance is the oracle's per-access bookkeeping: it moves p's
// next use (ps is p's state) to the stream's following reference of p
// and, for a Tier-1 resident, records the new key. A Tier-2 resident
// leaves Tier-2 on this very access, and other pages push when they
// enter a tier.
//
//gmt:coldpath
func (rt *Runtime) oracleAdvance(p tier.PageID, ps *pageState, idx int64) {
	if idx >= int64(len(rt.nextOcc)) {
		panic("core: access beyond Config.Future")
	}
	ps.nextUse = rt.nextOcc[idx]
	if ps.loc == locTier1 {
		rt.oracleTrack(rt.t1, &rt.t1Heap, p, ps)
	}
}

// oracleTrack records resident p's current next use in h, the heap of
// store. An empty heap (the first insert of a fresh or Reset runtime)
// or one grown past oracleStale entries per resident is rebuilt from
// the store instead, which covers p.
//
//gmt:coldpath
func (rt *Runtime) oracleTrack(store tier.Store, h *oracleHeap, p tier.PageID, ps *pageState) {
	if len(*h) == 0 || len(*h) >= oracleStale*store.Len() {
		rt.oracleRebuild(store, h)
		return
	}
	h.push(oracleEntry{use: oracleKey(ps.nextUse), page: p})
}

// oracleRebuild refills h with exactly one current entry per resident
// of store.
//
//gmt:coldpath
func (rt *Runtime) oracleRebuild(store tier.Store, h *oracleHeap) {
	s := (*h)[:0]
	store.Each(func(p tier.PageID) {
		s = append(s, oracleEntry{use: oracleKey(rt.dir.get(p).nextUse), page: p})
	})
	*h = s
	for i := len(s)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// oracleVictim returns the resident of store with the furthest next use
// — furthest's pick — from its heap, discarding stale entries on top.
// The pick stays in the heap: a Tier-2 pick may be kept, and a removed
// Tier-1 pick is discarded as stale by the next selection.
//
//gmt:coldpath
func (rt *Runtime) oracleVictim(store tier.Store, h *oracleHeap) (tier.PageID, *pageState) {
	if len(*h) == 0 {
		rt.oracleRebuild(store, h)
	}
	for len(*h) > 0 {
		top := (*h)[0]
		if store.Contains(top.page) {
			if ps := rt.dir.get(top.page); oracleKey(ps.nextUse) == top.use {
				if invariant.Enabled {
					ref, _ := rt.furthest(store)
					invariant.Assert(ref == top.page,
						"core: oracle heap picked page %d, resident scan picked %d", top.page, ref)
				}
				return top.page, ps
			}
		}
		h.pop()
	}
	panic("core: oracle eviction from empty store")
}

// oracleEvict selects and places a Tier-1 victim with future knowledge.
// The whole policy sits behind a coldpath barrier: it is an offline
// upper bound, never on the perf-gated miss path.
//
//gmt:coldpath
func (rt *Runtime) oracleEvict(ready sim.EventFunc, rctx any) {
	victim, vps := rt.oracleVictim(rt.t1, &rt.t1Heap)
	rt.t1.Remove(victim)
	vps.loc = locSSD
	if vps.nextUse < 0 {
		// Dead page: free (or a writeback if dirty).
		rt.discard(victim, vps)
		ready(rctx, 0)
		return
	}
	if !rt.t2.Full() {
		rt.placeInTier2(victim, vps, ready, rctx)
		return
	}
	t2victim, t2ps := rt.oracleVictim(rt.t2, &rt.t2Heap)
	if t2ps.nextUse >= 0 && t2ps.nextUse <= vps.nextUse {
		// Everything resident returns sooner: the incoming page is the
		// least valuable, keep Tier-2 intact.
		rt.discard(victim, vps)
		ready(rctx, 0)
		return
	}
	rt.t2.Remove(t2victim)
	rt.m.Tier2Evictions++
	rt.discard(t2victim, t2ps)
	rt.placeInTier2Delayed(victim, vps, rt.cfg.Tier2EvictOverhead, ready, rctx)
}

// furthest reports the resident with the furthest next use (dead pages
// count as infinitely far), breaking ties on the smaller page ID. It is
// the reference the heaps are checked against.
func (rt *Runtime) furthest(store tier.Store) (tier.PageID, *pageState) {
	best := tier.NoPage
	var bestPS *pageState
	var bestUse int64
	store.Each(func(p tier.PageID) {
		ps := rt.dir.get(p)
		use := oracleKey(ps.nextUse)
		switch {
		case best == tier.NoPage,
			use > bestUse,
			use == bestUse && p < best:
			best, bestPS, bestUse = p, ps, use
		}
	})
	if best == tier.NoPage {
		panic("core: oracle eviction from empty store")
	}
	return best, bestPS
}
