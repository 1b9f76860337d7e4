package core

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/tier"
)

// pageDirectory is the runtime's page-metadata table: a dense
// PageID-indexed slice of *pageState. Page IDs are bounded by the
// workload footprint (the dense-directory contract documented in
// HACKING.md), so direct indexing replaces the former map without a
// size penalty that matters — and without hashing on every access.
//
// States are allocated from a chunked arena rather than a value slice:
// callers hold *pageState across simulated events (closures capture
// them), so the backing storage must never move. Chunks are fixed-size
// arrays appended to as the footprint grows; handed-out pointers stay
// valid forever. A state is never released within a run (page
// metadata — predictor history, dirty bits — must outlive residency),
// so the arena only grows toward the footprint and steady state
// allocates nothing.
type pageDirectory struct {
	dir    []*pageState
	chunks [][]pageState
	cursor int // states carved from the arena (chunk = cursor>>shift)
}

// pageChunkSize is the arena growth quantum (structs per chunk).
const (
	pageChunkShift = 10
	pageChunkSize  = 1 << pageChunkShift
)

// reserve presizes the directory index for an n-page footprint so the
// per-access path never grows it.
func (d *pageDirectory) reserve(n int) {
	if n > len(d.dir) {
		nv := make([]*pageState, n)
		copy(nv, d.dir)
		d.dir = nv
	}
}

// lookup returns p's state, creating it (on the SSD, clean) on first
// reference. The fast path is one unsigned compare (rejecting negative
// IDs and out-of-range IDs together) plus the slice load, small enough
// to inline into the per-access path; first references and growth take
// the outlined slow path.
func (d *pageDirectory) lookup(p tier.PageID) *pageState {
	if uint64(p) < uint64(len(d.dir)) {
		if ps := d.dir[p]; ps != nil {
			return ps
		}
	}
	return d.lookupSlow(p)
}

// lookupSlow handles first references and directory growth; both are
// amortized off the per-access steady state.
//
//gmt:coldpath
func (d *pageDirectory) lookupSlow(p tier.PageID) *pageState {
	if p < 0 {
		panic(fmt.Sprintf("core: negative page id %d", p))
	}
	if int64(p) >= int64(len(d.dir)) {
		d.reserve(growSize(len(d.dir), int(p)+1))
	}
	if ps := d.dir[p]; ps != nil {
		return ps
	}
	ps := d.alloc()
	d.dir[p] = ps
	return ps
}

// get returns p's existing state; it panics if p was never referenced
// (every caller holds a page that has been through lookup).
func (d *pageDirectory) get(p tier.PageID) *pageState {
	if p < 0 || int64(p) >= int64(len(d.dir)) || d.dir[p] == nil {
		panic(fmt.Sprintf("core: page %d has no directory entry", p))
	}
	return d.dir[p]
}

// alloc hands out a zeroed state carved from the arena. The zero
// pageState is a clean SSD-resident page (locSSD == 0). Carved states
// are cleared explicitly because a reset directory re-carves storage
// the previous run dirtied.
func (d *pageDirectory) alloc() *pageState {
	ci, off := d.cursor>>pageChunkShift, d.cursor&(pageChunkSize-1)
	if ci == len(d.chunks) {
		d.chunks = append(d.chunks, make([]pageState, pageChunkSize))
	}
	ps := &d.chunks[ci][off]
	d.cursor++
	*ps = pageState{}
	return ps
}

// reset empties the directory, retaining the index capacity and the
// state arena: the next run re-carves the same chunks instead of
// re-allocating its footprint.
func (d *pageDirectory) reset() {
	for i := range d.dir {
		d.dir[i] = nil
	}
	d.cursor = 0
}

// each calls fn for every referenced page in ascending page-ID order.
func (d *pageDirectory) each(fn func(tier.PageID, *pageState)) {
	for i, ps := range d.dir {
		if ps != nil {
			fn(tier.PageID(i), ps)
		}
	}
}

// growSize doubles have toward need (minimum 64) to amortize index
// growth for workloads that never declared a footprint.
func growSize(have, need int) int {
	size := have
	if size < 64 {
		size = 64
	}
	for size < need {
		size *= 2
	}
	return size
}
