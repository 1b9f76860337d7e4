package core

import (
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/tier"
)

// coinTrace cycles more pages than Tier-1 holds so PolicyRandom's coin
// is flipped on every eviction.
func coinTrace(n int) []gpu.Access {
	tr := make([]gpu.Access, n)
	for i := range tr {
		tr[i] = gpu.Access{Page: tier.PageID(i % 96), Write: i%7 == 0}
	}
	return tr
}

// TestSeedDeterminism checks that Config.Seed drives the runtime's
// random stream: two runs with the same seed are identical, and the
// seed actually drives the coin (different seeds change placement
// counts).
func TestSeedDeterminism(t *testing.T) {
	snap := func(seed int64) interface{} {
		cfg := smallConfig(PolicyRandom)
		cfg.Seed = seed
		rt, _ := run(t, cfg, coinTrace(6000), 8)
		return rt.Snapshot()
	}
	if snap(7) != snap(7) {
		t.Fatal("same seed must reproduce the run exactly")
	}
	a, b := snap(7), snap(8)
	if a == b {
		t.Fatal("different seeds produced identical runs; Config.Seed is not being used")
	}
}
