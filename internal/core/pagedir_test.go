package core

import (
	"testing"

	"github.com/gmtsim/gmt/internal/tier"
)

// TestPageDirectoryChunkCarving checks that states are carved from
// fixed chunks and previously handed-out pointers stay valid across
// arena growth (the pointer-stability contract).
func TestPageDirectoryChunkCarving(t *testing.T) {
	var d pageDirectory
	ptrs := make(map[tier.PageID]*pageState)
	const n = pageChunkSize*2 + 5
	for p := tier.PageID(0); p < n; p++ {
		ps := d.lookup(p)
		ps.evictVTD = int64(p)
		ptrs[p] = ps
	}
	if len(d.chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(d.chunks))
	}
	for p, ps := range ptrs {
		if d.lookup(p) != ps {
			t.Fatalf("page %d: pointer moved after growth", p)
		}
		if ps.evictVTD != int64(p) {
			t.Fatalf("page %d: state corrupted after growth", p)
		}
	}
}
