package exp

import (
	"context"
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/workload"
)

// TestEvictionFreePrefix pins the helper's boundary behavior.
func TestEvictionFreePrefix(t *testing.T) {
	tr := []gpu.Access{
		{Page: 0}, {Page: 1}, gpu.Barrier, {Page: 0}, {Page: 2}, {Page: 3},
	}
	cases := []struct {
		tier1 int
		want  int
	}{
		{0, 0},
		{1, 1},
		{2, 4},  // pages 0,1 fit; barrier and the repeat of 0 extend the prefix
		{3, 5},  // 0,1,2 fit
		{4, 6},  // whole trace fits
		{99, 6}, // capacity beyond footprint
	}
	for _, c := range cases {
		if got := evictionFreePrefix(tr, c.tier1); got != c.want {
			t.Errorf("evictionFreePrefix(tier1=%d) = %d, want %d", c.tier1, got, c.want)
		}
	}
}

// TestSweepUnitAllocGate: a root suite and its derived sub-suites draw
// from one run-unit pool, so a quick-scale fig11–13 prewarm on one
// worker runs every simulation of its six sub-suites on a single unit —
// one engine, runtime and GPU, built once. With a pool per sub-suite it
// built six. A suite made by WithSeed keeps a pool of its own.
func TestSweepUnitAllocGate(t *testing.T) {
	s := NewSuite(workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2, DatasetSeed: 42})
	if _, err := Prewarm(context.Background(), s, []string{"fig11", "fig12", "fig13"}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if len(s.subOrder) != 6 {
		t.Fatalf("fig11–13 derived %d sub-suites, want 6", len(s.subOrder))
	}
	for _, k := range s.subOrder {
		if s.subs[k].units != s.units {
			t.Errorf("sub-suite %s has a unit pool of its own", k)
		}
	}
	if n := len(s.units.idle); n != 1 {
		t.Errorf("fig11–13 on one worker built %d run units, want 1", n)
	}
	if s.WithSeed(7).units == s.units {
		t.Error("a WithSeed suite shares its parent's unit pool")
	}
}
