// Package tier provides the page-residency structures used by the GMT
// runtime: a clock (second-chance) replacement set for Tier-1 (and for
// Tier-2 under GMT-TierOrder), a FIFO set for Tier-2 under the other
// policies (paper §2.2), and two DBMS-style Tier-2 alternatives —
// LRU-K (K=2) and 2Q — selectable by name through NewStore for the
// serving-workload policy studies (policies.go).
//
// These structures track membership and choose victims; page metadata
// (dirty bits, timestamps, predictor state) lives with the runtime.
//
// Membership indices are dense slices keyed directly by PageID rather
// than maps: page IDs are bounded by the workload footprint, so a
// slice-backed directory gives O(1) lookups with no hashing, no
// per-entry allocation, and — because every iteration the package
// performs walks a slice — no map-order nondeterminism for the maporder
// analyzer to police. The indices grow by doubling toward the largest
// page ID seen (or are presized via Reserve), so steady-state Touch /
// Insert / Remove / Victim perform zero allocations.
package tier

import (
	"fmt"
	"math/bits"

	"github.com/gmtsim/gmt/internal/invariant"
)

// PageID identifies a 64 KiB page by its index in the application's
// backing dataset (its "home" location on the SSD).
type PageID int64

// NoPage is returned by Victim on structures that allow emptiness checks.
const NoPage PageID = -1

// Store is a fixed-capacity set of resident pages with a replacement
// policy. Implementations: *Clock, *FIFO, *LRUK, *TwoQ (policies.go);
// NewStore builds one by name.
//
// Recency-tracking policies cannot see why a page leaves: the runtime
// calls Remove both when it evicts a page (always immediately after
// Victim selected it) and when it promotes a demanded page to Tier-1.
// Policies that care (LRU-K, 2Q) therefore classify a Remove of the most
// recent Victim() result as an eviction and any other Remove as a
// promotion — i.e. a reference. The one caller that can blur this (the
// runtime's reclaim path rejects an ineligible victim without removing
// it, and the same page may be demanded right after) only costs the
// policy a single reference credit, never correctness.
type Store interface {
	// Insert adds p. It panics if the store is full or p is present:
	// callers must evict first, which keeps accounting explicit.
	Insert(p PageID)
	// Remove deletes p, reporting whether it was present.
	Remove(p PageID) bool
	// Victim selects the replacement victim without removing it.
	// It panics if the store is empty.
	Victim() PageID
	// Contains reports whether p is resident.
	Contains(p PageID) bool
	// Each calls fn for every resident page in ascending page-ID order.
	// The order is part of the contract: it is deterministic and
	// independent of insertion order, so two stores holding the same
	// resident set iterate identically regardless of the history that
	// built them (the maporder discipline, applied to stores).
	Each(fn func(PageID))
	// Reserve presizes the page-ID index for a workload footprint of n
	// pages, so the hot path never grows it mid-run.
	Reserve(n int)
	// Reset empties the store, restoring the behavior of a freshly
	// constructed store of the same capacity while retaining allocated
	// index storage (runtime recycling). "Behavior" is the full contract:
	// after Reset, any operation sequence must produce the same victim
	// choices and iteration order a fresh store would — no retained
	// reference history, hand position, or queue state may leak through
	// (the conformance suite's reset-equals-fresh subtest pins this for
	// every implementation).
	Reset()
	// Len and Capacity report occupancy; Full is Len() == Capacity().
	Len() int
	Capacity() int
	Full() bool
}

// noSlot marks an absent page in a dense index.
const noSlot int32 = -1

// pageIndex is a dense PageID -> slot map backed by a slice. Absent
// pages read noSlot. Negative page IDs panic: residency structures only
// ever hold real dataset pages (sentinels like gpu.BarrierPage never
// reach a store).
type pageIndex struct {
	v []int32
}

func (x *pageIndex) get(p PageID) int32 {
	if p < 0 || int64(p) >= int64(len(x.v)) {
		return noSlot
	}
	return x.v[p]
}

func (x *pageIndex) set(p PageID, slot int32) {
	if p < 0 {
		panic(fmt.Sprintf("tier: negative page id %d", p))
	}
	if int64(p) >= int64(len(x.v)) {
		x.grow(int64(p) + 1)
	}
	x.v[p] = slot
}

func (x *pageIndex) del(p PageID) {
	if p >= 0 && int64(p) < int64(len(x.v)) {
		x.v[p] = noSlot
	}
}

// grow extends the index to at least n entries, doubling to amortize.
//
//gmt:coldpath
func (x *pageIndex) grow(n int64) {
	size := int64(len(x.v))
	if size < 64 {
		size = 64
	}
	for size < n {
		size *= 2
	}
	nv := make([]int32, size)
	copy(nv, x.v)
	for i := len(x.v); i < len(nv); i++ {
		nv[i] = noSlot
	}
	x.v = nv
}

// Clock is a second-chance (clock) replacement set, the Tier-1
// replacement algorithm in both BaM and GMT (§2, "What to evict").
//
// Occupancy and reference bits live in bitmaps so the hand sweep runs a
// word (64 slots) at a time: the first victim word-scan computes
// occupied &^ referenced, which is exactly the per-slot test the
// classic loop makes, so the victim sequence is bit-identical while a
// sweep over a hot, fully-referenced clock costs capacity/64 word ops
// instead of capacity slot loads.
type Clock struct {
	slots []PageID
	// ref[i/64] bit i%64 is slot i's reference bit; occ is the
	// occupancy bitmap. Empty slots always have a clear ref bit, so the
	// sweep may clear ref bits rangewise without consulting occ.
	ref   []uint64
	occ   []uint64
	hand  int
	index pageIndex // page -> slot
	n     int       // resident pages
	free  []int
}

var _ Store = (*Clock)(nil)

// NewClock returns an empty clock with the given capacity.
func NewClock(capacity int) *Clock {
	if capacity < 1 {
		panic("tier: clock capacity must be >= 1")
	}
	words := (capacity + 63) / 64
	c := &Clock{
		slots: make([]PageID, capacity),
		ref:   make([]uint64, words),
		occ:   make([]uint64, words),
		free:  make([]int, 0, capacity),
	}
	for i := range c.slots {
		c.slots[i] = NoPage
		c.free = append(c.free, capacity-1-i) // pop order 0,1,2,...
	}
	return c
}

// Reserve presizes the page index for an n-page footprint.
func (c *Clock) Reserve(n int) {
	if int64(n) > int64(len(c.index.v)) {
		c.index.grow(int64(n))
	}
}

// Reset empties the clock, reproducing NewClock's state exactly — free
// slots pop in ascending order, hand at zero, all bits clear — while
// retaining the slot arrays and the page index's capacity.
func (c *Clock) Reset() {
	for i := range c.slots {
		c.slots[i] = NoPage
	}
	for i := range c.ref {
		c.ref[i] = 0
		c.occ[i] = 0
	}
	c.hand = 0
	c.n = 0
	for i := range c.index.v {
		c.index.v[i] = noSlot
	}
	capacity := len(c.slots)
	c.free = c.free[:0]
	for i := 0; i < capacity; i++ {
		c.free = append(c.free, capacity-1-i) // pop order 0,1,2,...
	}
}

// Insert adds p with its reference bit set.
//
//gmt:hotpath
func (c *Clock) Insert(p PageID) { c.InsertSlot(p) }

// InsertSlot adds p and reports the slot it landed in. The slot stays
// valid until p is removed, so a caller that keeps page metadata can
// cache it and use TouchSlot on its hit path, skipping the page-index
// lookup.
//
//gmt:hotpath
func (c *Clock) InsertSlot(p PageID) int32 {
	if c.index.get(p) != noSlot {
		panic(fmt.Sprintf("tier: page %d already in clock", p))
	}
	if len(c.free) == 0 {
		panic("tier: clock full")
	}
	i := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.slots[i] = p
	c.ref[i>>6] |= 1 << (uint(i) & 63)
	c.occ[i>>6] |= 1 << (uint(i) & 63)
	c.index.set(p, int32(i))
	c.n++
	c.checkSlots()
	return int32(i)
}

// checkSlots asserts the clock's conservation invariant: every slot is
// either resident or free (gmtinvariants builds only).
func (c *Clock) checkSlots() {
	if invariant.Enabled {
		invariant.Assert(c.n+len(c.free) == len(c.slots),
			"tier: clock slot leak: %d resident + %d free != %d capacity",
			c.n, len(c.free), len(c.slots))
	}
}

// Touch sets p's reference bit; it is a no-op if p is absent.
//
//gmt:hotpath
func (c *Clock) Touch(p PageID) {
	if i := c.index.get(p); i != noSlot {
		c.TouchSlot(i)
	}
}

// TouchSlot sets the reference bit of a slot obtained from InsertSlot.
// The caller vouches that the page is still resident in that slot; this
// is the per-hit fast path with no index lookup. Testing before setting
// matters: hit-dominated phases touch already-referenced slots almost
// every time, and skipping the redundant store turns a serialized
// read-modify-write chain on the shared bitmap word into an independent
// (pipelineable) load per access.
//
//gmt:hotpath
func (c *Clock) TouchSlot(s int32) {
	if bit := uint64(1) << (uint(s) & 63); c.ref[s>>6]&bit == 0 {
		c.ref[s>>6] |= bit
	}
}

// Remove deletes p.
//
//gmt:hotpath
func (c *Clock) Remove(p PageID) bool {
	i := c.index.get(p)
	if i == noSlot {
		return false
	}
	c.index.del(p)
	c.slots[i] = NoPage
	c.ref[i>>6] &^= 1 << (uint(i) & 63)
	c.occ[i>>6] &^= 1 << (uint(i) & 63)
	c.free = append(c.free, int(i))
	c.n--
	c.checkSlots()
	return true
}

// Victim runs the clock hand: occupied slots with the reference bit set
// get a second chance (bit cleared, hand advances); the first unreferenced
// occupied slot is the victim. The hand is left pointing at the victim, so
// a caller that rejects the choice can call Reject and then Victim again.
//
// The sweep works on bitmap words: within each word the candidates are
// occ &^ ref at or after the hand; if none, every slot the hand passed
// gets its reference bit cleared (a no-op for empty slots, whose bits
// are already clear) and the scan moves to the next word, wrapping. A
// fully-referenced clock clears the whole map on the first lap and
// selects on the second — the same victim the slot-at-a-time loop
// finds, two orders of magnitude fewer memory operations.
//
//gmt:hotpath
func (c *Clock) Victim() PageID {
	if c.n == 0 {
		panic("tier: victim from empty clock")
	}
	size := len(c.slots)
	i := c.hand
	for {
		w := i >> 6
		from := uint(i) & 63
		// Occupancy bits beyond capacity are never set, so the last
		// word's tail can't produce a candidate.
		if cand := c.occ[w] &^ c.ref[w] &^ (1<<from - 1); cand != 0 {
			s := w<<6 + bits.TrailingZeros64(cand)
			// Second chance for every occupied slot passed: clear refs
			// in [i, s). Empty slots' bits are already clear.
			c.ref[w] &^= (1<<uint(s&63) - 1) &^ (1<<from - 1)
			c.hand = s
			return c.slots[s]
		}
		c.ref[w] &^= ^(1<<from - 1)
		i = (w + 1) << 6
		if i >= size {
			i = 0
		}
	}
}

// Reject gives p another chance after a Victim call chose it: its
// reference bit is set again and the hand moves past it. GMT-Reuse uses
// this when a candidate's predicted reuse is "short" (§2.1.3: retain in
// GPU memory and run another round of clock).
//
//gmt:hotpath
func (c *Clock) Reject(p PageID) {
	i := c.index.get(p)
	if i == noSlot {
		panic(fmt.Sprintf("tier: rejecting absent page %d", p))
	}
	c.ref[i>>6] |= 1 << (uint(i) & 63)
	if c.hand == int(i) {
		c.hand = (c.hand + 1) % len(c.slots)
	}
}

// Contains reports residency.
func (c *Clock) Contains(p PageID) bool { return c.index.get(p) != noSlot }

// Each calls fn for every resident page in ascending page-ID order
// (the Store contract). The walk is over the dense page index rather
// than the slots, which would reflect insertion order; Each is not on
// the per-access path, so the O(max page ID) cost is acceptable.
func (c *Clock) Each(fn func(PageID)) {
	seen := 0
	for p, slot := range c.index.v {
		if slot != noSlot {
			fn(PageID(p))
			seen++
			if seen == c.n {
				return
			}
		}
	}
}

// Len reports the number of resident pages.
func (c *Clock) Len() int { return c.n }

// Capacity reports the slot count.
func (c *Clock) Capacity() int { return len(c.slots) }

// Full reports whether every slot is occupied.
func (c *Clock) Full() bool { return c.n == len(c.slots) }

// FIFO is a first-in-first-out replacement set, GMT's Tier-2 eviction
// mechanism (§2.2). Removal of arbitrary members (promotion to Tier-1)
// is O(1) amortized via tombstones; a head cursor plus in-place
// compaction keeps the queue's backing array bounded and reused, so
// steady-state Insert/Remove/Victim allocate nothing.
type FIFO struct {
	capacity int
	queue    []PageID
	head     int // queue[:head] entries are consumed
	resident []bool
	n        int
}

var _ Store = (*FIFO)(nil)

// NewFIFO returns an empty FIFO with the given capacity.
func NewFIFO(capacity int) *FIFO {
	if capacity < 1 {
		panic("tier: fifo capacity must be >= 1")
	}
	return &FIFO{capacity: capacity}
}

// Reserve presizes the residency index for an n-page footprint. Growth
// from the insert path doubles (growSize), so it is amortized off the
// per-access steady state.
//
//gmt:coldpath
func (f *FIFO) Reserve(n int) {
	if n > len(f.resident) {
		nv := make([]bool, n)
		copy(nv, f.resident)
		f.resident = nv
	}
}

// Reset empties the FIFO, reproducing NewFIFO's state — empty queue,
// head at zero — while retaining the queue's backing array and the
// residency index's capacity (a longer index is behavior-neutral: it
// only changes when growth copies happen, never membership answers).
func (f *FIFO) Reset() {
	for i := range f.resident {
		f.resident[i] = false
	}
	f.queue = f.queue[:0]
	f.head = 0
	f.n = 0
}

func (f *FIFO) isResident(p PageID) bool {
	return p >= 0 && int64(p) < int64(len(f.resident)) && f.resident[p]
}

// Insert adds p at the tail.
//
//gmt:hotpath
func (f *FIFO) Insert(p PageID) {
	if p < 0 {
		panic(fmt.Sprintf("tier: negative page id %d", p))
	}
	if f.isResident(p) {
		panic(fmt.Sprintf("tier: page %d already in fifo", p))
	}
	if f.n >= f.capacity {
		panic("tier: fifo full")
	}
	if int64(p) >= int64(len(f.resident)) {
		f.Reserve(growSize(len(f.resident), int(p)+1))
	}
	f.resident[p] = true
	f.n++
	f.queue = append(f.queue, p)
	f.compact()
	invariant.Assert(f.n <= f.capacity,
		"tier: fifo holds %d residents above capacity %d", f.n, f.capacity)
}

// growSize doubles have toward need (minimum 64) to amortize index
// growth.
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

// Remove deletes p (leaving a tombstone in the queue).
//
//gmt:hotpath
func (f *FIFO) Remove(p PageID) bool {
	if !f.isResident(p) {
		return false
	}
	f.resident[p] = false
	f.n--
	return true
}

// Victim reports the oldest resident page.
//
//gmt:hotpath
func (f *FIFO) Victim() PageID {
	f.skipDead()
	if f.head >= len(f.queue) {
		panic("tier: victim from empty fifo")
	}
	return f.queue[f.head]
}

func (f *FIFO) skipDead() {
	for f.head < len(f.queue) && !f.resident[f.queue[f.head]] {
		f.head++
	}
}

// compact reclaims queue storage when consumed entries and tombstones
// dominate, rewriting the live tail into the front of the same backing
// array so append reuses it. The trigger measures the unconsumed queue
// (excluding the prefix skipDead already passed): compaction drops dead
// mid-queue entries, which changes where a later re-insert of those
// pages lands, so when it fires is part of the replacement order and
// must not depend on how the consumed prefix is represented.
//
//gmt:coldpath
func (f *FIFO) compact() {
	if n := len(f.queue) - f.head; n < 2*f.capacity || n < 64 {
		return
	}
	live := f.queue[:0]
	for _, p := range f.queue[f.head:] {
		if f.resident[p] {
			live = append(live, p)
		}
	}
	f.queue = live
	f.head = 0
}

// Contains reports residency.
func (f *FIFO) Contains(p PageID) bool { return f.isResident(p) }

// Each calls fn for every resident page, in ascending page-ID order
// (deterministic; the queue itself may hold stale duplicates for
// re-inserted pages, so it cannot be walked directly).
func (f *FIFO) Each(fn func(PageID)) {
	seen := 0
	for p, r := range f.resident {
		if r {
			fn(PageID(p))
			seen++
			if seen == f.n {
				return
			}
		}
	}
}

// Len reports the number of resident pages.
func (f *FIFO) Len() int { return f.n }

// Capacity reports the maximum residency.
func (f *FIFO) Capacity() int { return f.capacity }

// Full reports whether the FIFO is at capacity.
func (f *FIFO) Full() bool { return f.n >= f.capacity }
