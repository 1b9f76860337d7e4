package core

import (
	"testing"

	"github.com/gmtsim/gmt/internal/tier"
)

// TestPageDirectoryFreeListReuse pins the arena's recycling contract:
// a released state is handed out again (zeroed) before the arena grows.
func TestPageDirectoryFreeListReuse(t *testing.T) {
	var d pageDirectory
	a := d.lookup(1)
	a.dirty = true
	b := d.lookup(2)

	d.free = append(d.free, a) // simulate a future release path
	c := d.lookup(3)
	if c != a {
		t.Fatalf("free-listed state not recycled: got %p, want %p", c, a)
	}
	if c.dirty {
		t.Fatal("recycled state not zeroed")
	}
	if got := d.lookup(2); got != b {
		t.Fatalf("unrelated entry moved: got %p, want %p", got, b)
	}
	if len(d.chunks) != 1 {
		t.Fatalf("arena grew to %d chunks despite free list", len(d.chunks))
	}
}

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
