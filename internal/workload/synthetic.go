package workload

import (
	"math/rand"

	"github.com/gmtsim/gmt/internal/gpu"
)

// Synthetic workloads for library users and microbenchmarks: unlike the
// nine Table-2 applications these are parameterized directly, not sized
// against a Scale.

// Strided sweeps its pages repeatedly at a fixed stride — the classic
// regular pattern whose reuse distance equals its footprint.
type Strided struct {
	NumPages int64
	Stride   int64
	Rounds   int
}

// NewStrided returns a strided scan workload.
func NewStrided(pages, stride int64, rounds int) *Strided {
	if pages < 1 || stride < 1 || rounds < 1 {
		panic("workload: strided parameters must be positive")
	}
	return &Strided{NumPages: pages, Stride: stride, Rounds: rounds}
}

// Name implements Workload.
func (s *Strided) Name() string { return "Strided" }

// Pages implements Workload.
func (s *Strided) Pages() int64 { return s.NumPages }

// Trace implements Workload: each round visits every page once, in
// stride order (stride coprime with the page count visits all pages;
// otherwise the orbit of page 0).
func (s *Strided) Trace() []gpu.Access {
	var b traceBuilder
	for r := 0; r < s.Rounds; r++ {
		p := int64(0)
		for i := int64(0); i < s.NumPages; i++ {
			b.read(p)
			p = (p + s.Stride) % s.NumPages
		}
	}
	return b.trace()
}

// UniformRandom draws page IDs uniformly — the adversarial pattern for
// any predictor (no exploitable reuse structure).
type UniformRandom struct {
	NumPages  int64
	NAccesses int64
	WriteFrac float64
	Seed      int64
}

// NewUniformRandom returns a uniform random workload.
func NewUniformRandom(pages, accesses int64, writeFrac float64, seed int64) *UniformRandom {
	if pages < 1 || accesses < 1 {
		panic("workload: random parameters must be positive")
	}
	return &UniformRandom{NumPages: pages, NAccesses: accesses, WriteFrac: writeFrac, Seed: seed}
}

// Name implements Workload.
func (u *UniformRandom) Name() string { return "UniformRandom" }

// Pages implements Workload.
func (u *UniformRandom) Pages() int64 { return u.NumPages }

// Trace implements Workload.
func (u *UniformRandom) Trace() []gpu.Access {
	rng := rand.New(rand.NewSource(u.Seed))
	var b traceBuilder
	for i := int64(0); i < u.NAccesses; i++ {
		p := rng.Int63n(u.NumPages)
		if rng.Float64() < u.WriteFrac {
			b.write(p)
		} else {
			b.read(p)
		}
	}
	return b.trace()
}

// PointerChase walks a random single-cycle permutation of its pages —
// fully data-dependent (each access determines the next), the pattern
// that defeats prefetchers but has perfectly periodic reuse.
type PointerChase struct {
	NumPages int64
	Rounds   int
	Seed     int64
}

// NewPointerChase returns a pointer-chase workload.
func NewPointerChase(pages int64, rounds int, seed int64) *PointerChase {
	if pages < 1 || rounds < 1 {
		panic("workload: pointer-chase parameters must be positive")
	}
	return &PointerChase{NumPages: pages, Rounds: rounds, Seed: seed}
}

// Name implements Workload.
func (p *PointerChase) Name() string { return "PointerChase" }

// Pages implements Workload.
func (p *PointerChase) Pages() int64 { return p.NumPages }

// Trace implements Workload: a Sattolo-shuffled successor table gives a
// single cycle covering every page; each round chases the full cycle.
func (p *PointerChase) Trace() []gpu.Access {
	rng := rand.New(rand.NewSource(p.Seed))
	perm := make([]int64, p.NumPages)
	for i := range perm {
		perm[i] = int64(i)
	}
	// Sattolo's algorithm: a uniformly random single-cycle permutation.
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]int64, p.NumPages)
	for i := range perm {
		next[i] = perm[i]
	}
	var b traceBuilder
	cur := int64(0)
	for r := 0; r < p.Rounds; r++ {
		for i := int64(0); i < p.NumPages; i++ {
			b.read(cur)
			cur = next[cur]
		}
	}
	return b.trace()
}

var (
	_ Workload = (*Strided)(nil)
	_ Workload = (*UniformRandom)(nil)
	_ Workload = (*PointerChase)(nil)
)
