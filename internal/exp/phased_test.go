package exp

import (
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
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
