package reuse

import "github.com/gmtsim/gmt/internal/tier"

// OLS is an incremental ordinary-least-squares fit of y = m*x + b. The
// host-side sampling thread feeds it (VTD, reuse distance) pairs and the
// GPU reads back coefficients to project RRD = m*RVTD + b (Eq. 2/3).
type OLS struct {
	n, sx, sy, sxx, sxy float64
}

// Add incorporates one sample.
func (o *OLS) Add(x, y float64) {
	o.n++
	o.sx += x
	o.sy += y
	o.sxx += x * x
	o.sxy += x * y
}

// Len reports the sample count.
func (o *OLS) Len() int { return int(o.n) }

// Coefficients reports the current fit. ok is false while the fit is
// degenerate (fewer than two samples, or no variance in x), in which case
// callers should fall back to the identity RRD = RVTD — a safe
// overestimate, since VTD counts non-unique accesses and therefore always
// bounds the reuse distance from above.
func (o *OLS) Coefficients() (m, b float64, ok bool) {
	if o.n < 2 {
		return 1, 0, false
	}
	den := o.n*o.sxx - o.sx*o.sx
	if den <= 1e-9 && den >= -1e-9 {
		return 1, 0, false
	}
	m = (o.n*o.sxy - o.sx*o.sy) / den
	b = (o.sy - m*o.sx) / o.n
	return m, b, true
}

// Coeffs is a published regression snapshot.
type Coeffs struct {
	M, B  float64
	Valid bool
}

// Estimate projects a reuse distance from a VTD. Invalid coefficients
// fall back to the identity.
func (c Coeffs) Estimate(vtd int64) int64 {
	if !c.Valid {
		return vtd
	}
	rrd := c.M*float64(vtd) + c.B
	if rrd < 0 {
		return 0
	}
	return int64(rrd)
}

// Sampler models the GPU→CPU sampling pipeline of §2.1.3: during the
// early part of execution the GPU pushes each coalesced access into a
// queue; a dedicated host thread computes true reuse distances with the
// tree method, accumulates (VTD, RD) pairs, and republishes refined
// regression coefficients after every batch (default every 10 000
// samples) rather than waiting for the full sample target.
type Sampler struct {
	tracker   *DistanceTracker
	ols       OLS
	target    int
	batch     int
	pairs     int
	pending   int
	coeffs    Coeffs
	batches   int
	pipelined bool
}

// NewSampler returns a sampler that stops observing after target sample
// pairs and republishes coefficients every batch pairs.
func NewSampler(target, batch int) *Sampler {
	s := &Sampler{tracker: NewDistanceTracker()}
	s.Reset(target, batch)
	return s
}

// Reset makes s equal to NewSampler(target, batch) while keeping its
// distance tracker's capacity, so a runtime recycled across runs does
// not regrow the tracker's tree from scratch on every run.
func (s *Sampler) Reset(target, batch int) {
	if batch < 1 {
		batch = 10_000
	}
	s.tracker.Reset()
	*s = Sampler{tracker: s.tracker, target: target, batch: batch, pipelined: true}
}

// SetPipelined controls whether coefficients are republished per batch
// (the paper's choice) or only once the full sample target is reached
// (the "wait until the end of sampling" strawman of §2.1.3).
func (s *Sampler) SetPipelined(p bool) { s.pipelined = p }

// Done reports whether the sample target has been reached.
func (s *Sampler) Done() bool { return s.pairs >= s.target }

// Observe feeds one access. It is a no-op once the target is reached, so
// the runtime can call it unconditionally on the hot path.
func (s *Sampler) Observe(p tier.PageID) {
	if s.Done() {
		return
	}
	vtd, rd, ok := s.tracker.Observe(p)
	if !ok {
		return
	}
	s.ols.Add(float64(vtd), float64(rd))
	s.pairs++
	s.pending++
	if (s.pipelined && s.pending >= s.batch) || s.Done() {
		s.publish()
	}
}

func (s *Sampler) publish() {
	m, b, ok := s.ols.Coefficients()
	s.coeffs = Coeffs{M: m, B: b, Valid: ok}
	s.pending = 0
	s.batches++
}

// Coeffs reports the most recently published regression.
func (s *Sampler) Coeffs() Coeffs { return s.coeffs }

// Pairs reports the number of (VTD, RD) pairs collected.
func (s *Sampler) Pairs() int { return s.pairs }

// Batches reports how many coefficient publications have happened.
func (s *Sampler) Batches() int { return s.batches }
