package workload

import (
	"math"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/reuse"
	"github.com/gmtsim/gmt/internal/tier"
)

// Characteristics summarizes a workload trace the way the paper's Table 2
// and Figure 7 do: reuse percentage, total I/O, and where reuse distances
// fall relative to the tier capacities.
//
// Two distance distributions are reported, because the paper uses both
// views: PairShort/Medium/Long bins the reuse distance of every access
// pair (the "where does the reuse live" view behind statements like
// "99.99% of Pathfinder's RRDs fall within Tier-1"), while
// EvictShort/Medium/Long bins the actual Remaining Reuse Distance at
// Tier-1 clock evictions of pages with a future access — the quantity
// GMT-Reuse predicts (Figures 4b/4c) and the placement-relevant bias.
type Characteristics struct {
	Name          string
	Pages         int64
	Accesses      int64
	DistinctPages int64
	ReusedPages   int64
	TotalIOBytes  int64

	PairShort, PairMedium, PairLong    int64
	EvictShort, EvictMedium, EvictLong int64
	DeadEvictions                      int64
}

// ReusePct reports the fraction of distinct pages with more than one
// access (Table 2's "Reuse % of a Page").
func (c Characteristics) ReusePct() float64 {
	if c.DistinctPages == 0 {
		return 0
	}
	return float64(c.ReusedPages) / float64(c.DistinctPages)
}

func fractions(a, b, c int64) (fa, fb, fc float64) {
	t := a + b + c
	if t == 0 {
		return 0, 0, 0
	}
	return float64(a) / float64(t), float64(b) / float64(t), float64(c) / float64(t)
}

// PairFractions reports the tier split of reuse-pair distances.
func (c Characteristics) PairFractions() (short, medium, long float64) {
	return fractions(c.PairShort, c.PairMedium, c.PairLong)
}

// EvictFractions reports the tier split of eviction-time RRDs.
func (c Characteristics) EvictFractions() (short, medium, long float64) {
	return fractions(c.EvictShort, c.EvictMedium, c.EvictLong)
}

// EvictionRecord is one Tier-1 eviction of a page that is accessed again
// later: its position in the trace and its actual RRD (distinct pages
// accessed before the page's next use). Figures 4b/4c plot these per
// page.
type EvictionRecord struct {
	Page     tier.PageID
	Position int
	RRD      int64
}

// PairSample is one (VTD, reuse distance) observation, the raw material
// of Figure 4a and the regression of Eq. 2.
type PairSample struct {
	VTD, RD int64
}

// Analysis bundles the summary with the raw series the figure drivers
// plot.
type Analysis struct {
	Characteristics
	Evictions []EvictionRecord
	Pairs     []PairSample
}

// Analyze computes trace characteristics against the given tier sizes.
// maxPairs bounds the collected (VTD, RD) samples (0 = none). Barrier
// tokens synchronize warps but touch no page, so positions count memory
// accesses only. Page IDs must be dense, as the bounded-page-ID contract
// requires: the working arrays are indexed by page, and pages and
// positions are held in 32 bits.
func Analyze(name string, trace []gpu.Access, s Scale, pageSize int64, maxPairs int) *Analysis {
	n, pages := 0, 0
	for _, acc := range trace {
		if !acc.IsBarrier() {
			n++
			pages = max(pages, int(acc.Page)+1)
		}
	}
	cl := reuse.Classifier{Tier1Pages: int64(s.Tier1Pages), Tier2Pages: int64(s.Tier2Pages)}
	a := &Analysis{}
	a.Name = name
	a.Accesses = int64(n)
	a.TotalIOBytes = a.Accesses * pageSize
	a.Characteristics.Pages = int64(pages)
	if maxPairs > 0 {
		a.Pairs = make([]PairSample, 0, min(maxPairs, n))
	}

	// One sweep measures every access pair's distance and runs a Tier-1
	// clock. A page evicted from the clock stays out of it until its
	// next access, so it has at most one eviction pending; at that
	// access the same tree gives the eviction's actual RRD, the distinct
	// pages from the eviction's position up to the access. An eviction
	// whose page never returns is dead.
	tr := reuse.NewDistanceTrackerFor(pages, n)
	clock := tier.NewClock(s.Tier1Pages)
	clock.Reserve(pages)
	pending := make([]int32, pages) // 1 + the position of the page's pending eviction, or 0
	reused := make([]bool, pages)
	// at[i] is the eviction made at position i: its victim and, once
	// the victim returns, its RRD (at least 1, the page whose miss
	// evicted it).
	type eviction struct{ page, rrd int32 }
	at := make([]eviction, n)
	evictions, returned := 0, 0
	i := 0
	for _, acc := range trace {
		if acc.IsBarrier() {
			continue
		}
		p := acc.Page
		if e := pending[p]; e > 0 {
			at[e-1].rrd = int32(tr.DistinctSince(int(e - 1)))
			pending[p] = 0
			returned++
		}
		if vtd, rd, ok := tr.Observe(p); !ok {
			a.DistinctPages++
		} else {
			if !reused[p] {
				reused[p] = true
				a.ReusedPages++
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
		if clock.Contains(p) {
			clock.Touch(p)
		} else {
			if clock.Full() {
				v := clock.Victim()
				clock.Remove(v)
				pending[v] = int32(i + 1)
				at[i].page = int32(v)
				evictions++
			}
			clock.Insert(p)
		}
		i++
	}
	a.DeadEvictions = int64(evictions - returned)
	a.Evictions = make([]EvictionRecord, 0, returned)
	for pos, e := range at {
		if e.rrd == 0 {
			continue
		}
		a.Evictions = append(a.Evictions, EvictionRecord{Page: int64(e.page), Position: pos, RRD: int64(e.rrd)})
		switch cl.Classify(int64(e.rrd)) {
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

// EvictionSeries groups eviction RRDs per page in eviction order — the
// data behind Figures 4b/4c. Only pages with at least minEvictions are
// returned.
func (a *Analysis) EvictionSeries(minEvictions int) map[tier.PageID][]int64 {
	series := make(map[tier.PageID][]int64)
	for _, e := range a.Evictions {
		series[e.Page] = append(series[e.Page], e.RRD)
	}
	for p, s := range series {
		if len(s) < minEvictions {
			delete(series, p)
		}
	}
	return series
}

// PairCorrelation fits RD = m*VTD + b over the collected samples and
// reports the coefficients with the Pearson correlation — Figure 4a's
// claim is that the relation is strongly linear.
func (a *Analysis) PairCorrelation() (m, b, r float64, ok bool) {
	if len(a.Pairs) < 2 {
		return 0, 0, 0, false
	}
	var o reuse.OLS
	var sx, sy float64
	for _, p := range a.Pairs {
		o.Add(float64(p.VTD), float64(p.RD))
		sx += float64(p.VTD)
		sy += float64(p.RD)
	}
	n := float64(len(a.Pairs))
	mx, my := sx/n, sy/n
	m, b, ok = o.Coefficients()
	if !ok {
		// Zero VTD variance (e.g. MultiVectorAdd's constant stride):
		// the relation is a single point, perfectly predictable by the
		// proportional fit through it.
		if mx > 0 {
			return my / mx, 0, 1, true
		}
		return m, b, 0, false
	}
	var cov, vx, vy float64
	for _, p := range a.Pairs {
		dx, dy := float64(p.VTD)-mx, float64(p.RD)-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return m, b, 1, true // perfectly degenerate line
	}
	r = cov / math.Sqrt(vx*vy)
	return m, b, r, true
}
