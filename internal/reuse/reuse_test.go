package reuse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gmtsim/gmt/internal/tier"
)

func TestFenwickAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var bit fenwick
		naive := make([]int64, 200)
		for op := 0; op < 300; op++ {
			i := rng.Intn(200)
			d := int64(rng.Intn(5) - 2)
			bit.Add(i, d)
			naive[i] += d
		}
		for q := 0; q < 50; q++ {
			lo, hi := rng.Intn(200), rng.Intn(200)
			if lo > hi {
				lo, hi = hi, lo
			}
			var want int64
			for i := lo; i <= hi; i++ {
				want += naive[i]
			}
			if bit.RangeSum(lo, hi) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestFenwickGrowthAgainstNaive drives the tree through several
// doublings — positions drawn from a range that widens each round — and
// through clears that keep the grown capacity, checking every RangeSum
// against a plain array and every cleared tree against a fresh one.
func TestFenwickGrowthAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var bit fenwick
	for trial := 0; trial < 4; trial++ {
		naive := make([]int64, 1<<12>>trial)
		used := 0
		for span := 40; span <= len(naive); span *= 2 {
			for op := 0; op < 200; op++ {
				i := rng.Intn(span)
				d := int64(rng.Intn(7) - 3)
				bit.Add(i, d)
				naive[i] += d
				if i+1 > used {
					used = i + 1
				}
			}
			for q := 0; q < 100; q++ {
				lo, hi := rng.Intn(span+8), rng.Intn(span+8)
				if lo > hi {
					lo, hi = hi, lo
				}
				var want int64
				for i := lo; i <= hi && i < len(naive); i++ {
					want += naive[i]
				}
				if got := bit.RangeSum(lo, hi); got != want {
					t.Fatalf("trial %d, span %d: RangeSum(%d, %d) = %d, want %d", trial, span, lo, hi, got, want)
				}
			}
		}
		if c := bit.capacity(); c < 1<<12 || c&(c-1) != 0 {
			t.Fatalf("capacity %d: want a power of two >= %d", c, 1<<12)
		}
		// A clear must leave no node nonzero: the tree equals a fresh
		// one of the same capacity. Later trials touch fewer positions,
		// so they clear a prefix of the retained capacity only.
		bit.clear(used)
		for j, v := range bit.tree {
			if v != 0 {
				t.Fatalf("trial %d: node %d = %d after clear(%d)", trial, j, v, used)
			}
		}
	}
}

// naiveDistances computes VTD and RD for each access by brute force.
func naiveDistances(trace []tier.PageID) (vtds, rds []int64, oks []bool) {
	for i, p := range trace {
		last := -1
		for j := i - 1; j >= 0; j-- {
			if trace[j] == p {
				last = j
				break
			}
		}
		if last < 0 {
			vtds, rds, oks = append(vtds, 0), append(rds, 0), append(oks, false)
			continue
		}
		distinct := map[tier.PageID]struct{}{}
		for j := last + 1; j < i; j++ {
			distinct[trace[j]] = struct{}{}
		}
		vtds = append(vtds, int64(i-last))
		rds = append(rds, int64(len(distinct)))
		oks = append(oks, true)
	}
	return vtds, rds, oks
}

func TestDistanceTrackerMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]tier.PageID, 300)
		for i := range trace {
			trace[i] = tier.PageID(rng.Intn(30))
		}
		wantV, wantR, wantOK := naiveDistances(trace)
		tr := NewDistanceTracker()
		for i, p := range trace {
			v, r, ok := tr.Observe(p)
			if ok != wantOK[i] {
				return false
			}
			if ok && (v != wantV[i] || r != wantR[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDistanceTrackerSimple(t *testing.T) {
	tr := NewDistanceTracker()
	// Trace: A B C A — reuse of A: VTD 3, RD 2 (B and C).
	for _, p := range []tier.PageID{0, 1, 2} {
		if _, _, ok := tr.Observe(p); ok {
			t.Fatal("first access reported a distance")
		}
	}
	v, r, ok := tr.Observe(0)
	if !ok || v != 3 || r != 2 {
		t.Fatalf("A B C A: vtd=%d rd=%d ok=%v, want 3,2,true", v, r, ok)
	}
	// A again immediately: VTD 1, RD 0.
	v, r, _ = tr.Observe(0)
	if v != 1 || r != 0 {
		t.Fatalf("A A: vtd=%d rd=%d, want 1,0", v, r)
	}
}

func TestDistinctInRangesMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]tier.PageID, 200)
		for i := range trace {
			trace[i] = tier.PageID(rng.Intn(25))
		}
		var qs []RangeQuery
		for q := 0; q < 40; q++ {
			from, to := rng.Intn(200)-1, rng.Intn(200)
			if from > to {
				from, to = to, from
			}
			qs = append(qs, RangeQuery{From: from, To: to})
		}
		got := DistinctInRanges(trace, qs)
		for i, q := range qs {
			distinct := map[tier.PageID]struct{}{}
			for j := q.From + 1; j <= q.To; j++ {
				distinct[trace[j]] = struct{}{}
			}
			if got[i] != int64(len(distinct)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDistinctInRangesOutOfBounds(t *testing.T) {
	got := DistinctInRanges([]tier.PageID{1, 2}, []RangeQuery{{From: 0, To: 5}})
	if got[0] != -1 {
		t.Fatalf("out-of-bounds query = %d, want -1", got[0])
	}
}

func TestOLSExactLine(t *testing.T) {
	var o OLS
	// y = 0.5x + 3, exactly.
	for x := 1.0; x <= 100; x++ {
		o.Add(x, 0.5*x+3)
	}
	m, b, ok := o.Coefficients()
	if !ok {
		t.Fatal("fit reported degenerate")
	}
	if math.Abs(m-0.5) > 1e-9 || math.Abs(b-3) > 1e-9 {
		t.Fatalf("m=%g b=%g, want 0.5, 3", m, b)
	}
}

func TestOLSDegenerate(t *testing.T) {
	var o OLS
	if _, _, ok := o.Coefficients(); ok {
		t.Fatal("empty fit reported ok")
	}
	o.Add(5, 1)
	o.Add(5, 9) // no x variance
	if _, _, ok := o.Coefficients(); ok {
		t.Fatal("zero-variance fit reported ok")
	}
}

func TestCoeffsEstimate(t *testing.T) {
	c := Coeffs{M: 0.5, B: -10, Valid: true}
	if got := c.Estimate(100); got != 40 {
		t.Fatalf("estimate(100) = %d, want 40", got)
	}
	if got := c.Estimate(2); got != 0 {
		t.Fatalf("estimate clamped = %d, want 0", got)
	}
	// Invalid coefficients: identity fallback (VTD bounds RD above).
	inv := Coeffs{}
	if got := inv.Estimate(77); got != 77 {
		t.Fatalf("identity fallback = %d, want 77", got)
	}
}

func TestSamplerLearnsLinearRelation(t *testing.T) {
	// A pure cyclic sweep has constant VTD (no x variance), which must
	// be reported as a degenerate fit, not a bogus line.
	s := NewSampler(1000, 100)
	const n = 50
	for round := 0; round < 40; round++ {
		for p := 0; p < n; p++ {
			s.Observe(tier.PageID(p))
		}
	}
	if s.Coeffs().Valid {
		t.Fatal("constant-VTD workload produced a 'valid' fit")
	}
	// Interleaving two loop strides gives VTD variance; the fit must be
	// valid and respect the RD <= VTD bound.
	s2 := NewSampler(10_000, 1000)
	for round := 0; round < 100; round++ {
		for p := 0; p < n; p++ {
			s2.Observe(tier.PageID(p))
		}
		for p := 0; p < n/2; p++ {
			s2.Observe(tier.PageID(p))
		}
	}
	c2 := s2.Coeffs()
	if !c2.Valid {
		t.Fatal("mixed-stride sampler did not publish a valid fit")
	}
	// RD must never exceed VTD: slope at most ~1 with small offset.
	if c2.M > 1.05 {
		t.Fatalf("slope %g > 1: RD cannot exceed VTD", c2.M)
	}
	if got := c2.Estimate(1000); got > 1000 {
		t.Fatalf("estimate(1000) = %d exceeds VTD bound", got)
	}
}

func TestSamplerBatchingAndTarget(t *testing.T) {
	s := NewSampler(10, 4)
	for i := 0; i < 100; i++ {
		s.Observe(tier.PageID(i % 5)) // every access after the first 5 yields a pair
	}
	if !s.Done() {
		t.Fatal("sampler never reached target")
	}
	if s.Pairs() != 10 {
		t.Fatalf("pairs = %d, want exactly target 10", s.Pairs())
	}
	if s.Batches() < 2 {
		t.Fatalf("batches = %d, want >= 2 (pipelined publication)", s.Batches())
	}
}

// TestSamplerResetMatchesNew: a sampler Reset after a longer stream —
// unpipelined, with negative page IDs and a grown tracker — observes a
// new stream exactly like NewSampler with the same arguments: the same
// (VTD, RD) pairs, batches and published coefficients after every
// access.
func TestSamplerResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stream := func(n, pages int) []tier.PageID {
		tr := make([]tier.PageID, n)
		for i := range tr {
			tr[i] = tier.PageID(rng.Intn(pages))
			if i%97 == 0 {
				tr[i] = -tier.PageID(rng.Intn(3) + 1)
			}
		}
		return tr
	}
	recycled := NewSampler(1<<20, 500)
	recycled.SetPipelined(false)
	for _, p := range stream(20_000, 3000) {
		recycled.Observe(p)
	}
	// The second stream outgrows the first, so it reads tree nodes the
	// first stream's ancestors occupied.
	for _, args := range [][3]int{{900, 64, 4000}, {1 << 20, 0, 30_000}, {2000, 300, 4000}} {
		target, batch, n := args[0], args[1], args[2]
		recycled.Reset(target, batch)
		fresh := NewSampler(target, batch)
		for i, p := range stream(n, 200) {
			recycled.Observe(p)
			fresh.Observe(p)
			if recycled.Pairs() != fresh.Pairs() || recycled.Batches() != fresh.Batches() ||
				recycled.Coeffs() != fresh.Coeffs() || recycled.Done() != fresh.Done() {
				t.Fatalf("Reset(%d, %d), access %d: recycled pairs %d batches %d coeffs %+v; fresh %d %d %+v",
					target, batch, i, recycled.Pairs(), recycled.Batches(), recycled.Coeffs(),
					fresh.Pairs(), fresh.Batches(), fresh.Coeffs())
			}
		}
	}
	// The tracker underneath reports the same distances as a new one.
	tr, ref := NewDistanceTracker(), NewDistanceTracker()
	for _, p := range stream(10_000, 5000) {
		tr.Observe(p)
	}
	tr.Reset()
	for i, p := range stream(3000, 100) {
		v, r, ok := tr.Observe(p)
		wv, wr, wok := ref.Observe(p)
		if v != wv || r != wr || ok != wok {
			t.Fatalf("access %d (page %d): reset tracker (%d, %d, %v), new tracker (%d, %d, %v)", i, p, v, r, ok, wv, wr, wok)
		}
	}
}

func TestClassifierBoundaries(t *testing.T) {
	cl := Classifier{Tier1Pages: 100, Tier2Pages: 400}
	cases := []struct {
		rrd  int64
		want Class
	}{
		{0, Short}, {99, Short}, {100, Medium}, {499, Medium}, {500, Long}, {1 << 40, Long},
	}
	for _, c := range cases {
		if got := cl.Classify(c.rrd); got != c.want {
			t.Fatalf("Classify(%d) = %v, want %v", c.rrd, got, c.want)
		}
	}
}

func TestMarkovPersistentPattern(t *testing.T) {
	// MultiVectorAdd-like: every eviction of a page lands in the same
	// class (Fig. 4b).
	var m Markov
	for i := 0; i < 10; i++ {
		m.Update(Medium, Medium)
	}
	if got := m.Predict(Medium); got != Medium {
		t.Fatalf("persistent predict = %v, want Medium", got)
	}
}

func TestMarkovAlternatingPattern(t *testing.T) {
	// PageRank-like: classes alternate between evictions (Fig. 4c).
	var m Markov
	for i := 0; i < 10; i++ {
		m.Update(Medium, Long)
		m.Update(Long, Medium)
	}
	if m.Predict(Medium) != Long || m.Predict(Long) != Medium {
		t.Fatalf("alternating pattern not learned: w=%v", m.Weights())
	}
}

func TestMarkovTieBreaks(t *testing.T) {
	var m Markov
	// Untrained: predict self.
	if m.Predict(Short) != Short || m.Trained(Short) {
		t.Fatal("untrained state should predict self and report untrained")
	}
	// Equal non-self weights: prefer the longer distance.
	m.Update(Short, Medium)
	m.Update(Short, Long)
	if got := m.Predict(Short); got != Long {
		t.Fatalf("tie-break = %v, want Long", got)
	}
	// Self ties beat non-self.
	m.Update(Short, Short)
	m.Update(Short, Short)
	if got := m.Predict(Short); got != Short {
		t.Fatalf("self-tie = %v, want Short", got)
	}
}

func TestClassString(t *testing.T) {
	if Short.String() != "short-reuse" || Medium.String() != "medium-reuse" ||
		Long.String() != "long-reuse" || Class(9).String() != "unknown" {
		t.Fatal("class strings wrong")
	}
}
