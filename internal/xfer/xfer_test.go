package xfer

import (
	"testing"

	"github.com/gmtsim/gmt/internal/pcie"
	"github.com/gmtsim/gmt/internal/sim"
)

const x16Bps = 16 * pcie.Gen3LaneBytesPerS

func TestCrossoverNearEightPages(t *testing.T) {
	cfg := DefaultConfig()
	// Figure 6a: DMA wins for small non-contiguous batches, zero-copy
	// (full warp) wins for large ones, crossing over around 8 pages.
	if DMA := cfg.DMATime(2, x16Bps); DMA >= cfg.ZeroCopyTime(2, 32, x16Bps) {
		t.Fatalf("at 2 pages DMA (%d) should beat zero-copy (%d)",
			DMA, cfg.ZeroCopyTime(2, 32, x16Bps))
	}
	if DMA := cfg.DMATime(32, x16Bps); DMA <= cfg.ZeroCopyTime(32, 32, x16Bps) {
		t.Fatalf("at 32 pages zero-copy (%d) should beat DMA (%d)",
			cfg.ZeroCopyTime(32, 32, x16Bps), DMA)
	}
	// Locate the crossover.
	cross := 0
	for n := 1; n <= 64; n++ {
		if cfg.ZeroCopyTime(n, 32, x16Bps) <= cfg.DMATime(n, x16Bps) {
			cross = n
			break
		}
	}
	if cross < 6 || cross > 10 {
		t.Fatalf("crossover at %d pages, want ≈8", cross)
	}
}

func TestZeroCopyScalesWithThreads(t *testing.T) {
	cfg := DefaultConfig()
	t32 := cfg.ZeroCopyTime(64, 32, x16Bps)
	t16 := cfg.ZeroCopyTime(64, 16, x16Bps)
	t8 := cfg.ZeroCopyTime(64, 8, x16Bps)
	if !(t32 < t16 && t16 < t8) {
		t.Fatalf("zero-copy times not monotone in threads: 32T=%d 16T=%d 8T=%d", t32, t16, t8)
	}
	// More than a warp doesn't help (coalesced unit is the warp).
	if cfg.ZeroCopyTime(64, 64, x16Bps) != t32 {
		t.Fatal("threads beyond a warp changed the time")
	}
}

func TestChooseHybridRule(t *testing.T) {
	cfg := DefaultConfig() // Hybrid-32T
	cases := []struct {
		n, threads int
		want       Method
	}{
		{1, 32, DMA},      // too few pages
		{7, 32, DMA},      // below crossover
		{8, 32, ZeroCopy}, // at crossover with a full warp
		{64, 16, DMA},     // not enough threads for Hybrid-32T
		{64, 32, ZeroCopy},
	}
	for _, c := range cases {
		if got := cfg.Choose(c.n, c.threads); got != c.want {
			t.Fatalf("Choose(%d pages, %d threads) = %v, want %v", c.n, c.threads, got, c.want)
		}
	}
}

func TestForcedModes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeDMA
	if cfg.Choose(1000, 32) != DMA {
		t.Fatal("ModeDMA did not force DMA")
	}
	cfg.Mode = ModeZeroCopy
	if cfg.Choose(1, 1) != ZeroCopy {
		t.Fatal("ModeZeroCopy did not force zero-copy")
	}
}

func TestHybridTimeMatchesChosenMethod(t *testing.T) {
	cfg := DefaultConfig()
	tm, m := cfg.HybridTime(64, 32, x16Bps)
	if m != ZeroCopy || tm != cfg.ZeroCopyTime(64, 32, x16Bps) {
		t.Fatalf("HybridTime(64,32) = %d,%v", tm, m)
	}
	tm, m = cfg.HybridTime(2, 32, x16Bps)
	if m != DMA || tm != cfg.DMATime(2, x16Bps) {
		t.Fatalf("HybridTime(2,32) = %d,%v", tm, m)
	}
}

func TestEngineDMASerializesLaunches(t *testing.T) {
	eng := sim.NewEngine()
	link := pcie.NewLink(eng, 16)
	cfg := DefaultConfig()
	cfg.Mode = ModeDMA
	e := NewEngine(eng, link, cfg)
	const n = 10
	doneCount := 0
	for i := 0; i < n; i++ {
		e.MovePageCall(false, 32, sim.CallFunc, func() { doneCount++ }, 0)
	}
	eng.Run()
	if doneCount != n {
		t.Fatalf("completions = %d, want %d", doneCount, n)
	}
	// Launch serialization bounds the batch below the link rate:
	// at least n * DMALaunch.
	if eng.Now() < sim.Time(n)*cfg.DMALaunch {
		t.Fatalf("batch finished in %d < serialized launch floor %d",
			eng.Now(), sim.Time(n)*cfg.DMALaunch)
	}
}

func TestEngineZeroCopyThroughputBeatsDMAUnderLoad(t *testing.T) {
	run := func(mode Mode) sim.Time {
		eng := sim.NewEngine()
		link := pcie.NewLink(eng, 16)
		cfg := DefaultConfig()
		cfg.Mode = mode
		e := NewEngine(eng, link, cfg)
		for i := 0; i < 256; i++ {
			e.MovePageCall(false, 32, sim.CallFunc, nil, 0)
		}
		eng.Run()
		return eng.Now()
	}
	dma, zc := run(ModeDMA), run(ModeZeroCopy)
	if zc >= dma {
		t.Fatalf("256-page burst: zero-copy (%dµs) should beat DMA (%dµs)",
			zc/sim.Microsecond, dma/sim.Microsecond)
	}
}

func TestEngineOutstandingTracking(t *testing.T) {
	eng := sim.NewEngine()
	link := pcie.NewLink(eng, 16)
	e := NewEngine(eng, link, DefaultConfig())
	for i := 0; i < 5; i++ {
		e.MovePageCall(i%2 == 0, 32, sim.CallFunc, nil, 0)
	}
	if e.Outstanding() != 5 {
		t.Fatalf("outstanding = %d, want 5", e.Outstanding())
	}
	eng.Run()
	if e.Outstanding() != 0 {
		t.Fatalf("outstanding after drain = %d, want 0", e.Outstanding())
	}
	s := e.Stats()
	if s.PagesUp != 3 || s.PagesDown != 2 {
		t.Fatalf("pagesUp=%d pagesDown=%d, want 3,2", s.PagesUp, s.PagesDown)
	}
	if s.DMATransfers+s.ZeroCopyTransfers != 5 {
		t.Fatalf("method counts don't add up: %+v", s)
	}
}

// TestMovePoolConservation pins the free-listed move records' accounting:
// every record acquired by MovePageCall is released back to the pool
// when its transfer completes, so a drained engine has acquired ==
// released and a long sweep reuses a bounded record set instead of
// leaking per-move allocations. (Under -tags gmtinvariants, Reset re-asserts the same.)
func TestMovePoolConservation(t *testing.T) {
	eng := sim.NewEngine()
	link := pcie.NewLink(eng, 16)
	e := NewEngine(eng, link, DefaultConfig())
	const n = 500
	done := 0
	for i := 0; i < n; i++ {
		// Mix directions, batch sizes (DMA vs zero-copy), and nil vs
		// non-nil completions so every move variant returns its record.
		var fn func()
		if i%3 == 0 {
			fn = func() { done++ }
		}
		e.MovePageCall(i%2 == 0, 1+i%64, sim.CallFunc, fn, 0)
	}
	acq, rel := e.MoveRecords()
	if acq != n {
		t.Fatalf("acquired = %d, want %d", acq, n)
	}
	if rel != 0 {
		t.Fatalf("released before Run = %d, want 0", rel)
	}
	eng.Run()
	acq, rel = e.MoveRecords()
	if acq != n || rel != n {
		t.Fatalf("after drain acquired=%d released=%d, want %d,%d", acq, rel, n, n)
	}
	if e.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", e.Outstanding())
	}
	// The pool holds every record ever carved: a second burst of the same
	// size must not grow acquisition beyond reuse (acquired counts uses,
	// not allocations — conservation is acquired == released at drain).
	for i := 0; i < n; i++ {
		e.MovePageCall(false, 8, sim.CallFunc, nil, 0)
	}
	eng.Run()
	acq, rel = e.MoveRecords()
	if acq != 2*n || rel != 2*n {
		t.Fatalf("second burst: acquired=%d released=%d, want %d,%d", acq, rel, 2*n, 2*n)
	}

	// Reset zeroes the conservation counters with the engine quiescent.
	e.Reset()
	if acq, rel := e.MoveRecords(); acq != 0 || rel != 0 {
		t.Fatalf("after Reset acquired=%d released=%d, want 0,0", acq, rel)
	}
	if s := e.Stats(); s.PagesUp != 0 || s.PagesDown != 0 || s.DMATransfers != 0 || s.ZeroCopyTransfers != 0 {
		t.Fatalf("after Reset stats = %+v, want zeroes", s)
	}
}

func TestMethodString(t *testing.T) {
	if DMA.String() != "cudaMemcpyAsync" || ZeroCopy.String() != "zero-copy" {
		t.Fatal("method strings wrong")
	}
}
