// Package sim provides a deterministic discrete-event simulation engine.
//
// All GMT components — the GPU execution model, the NVMe SSD, the PCIe
// link, and the tiering runtime — advance a single virtual clock owned by
// an Engine. Events scheduled for the same instant fire in scheduling
// order (FIFO), so a run is fully deterministic for a given seed.
//
// The engine is single-goroutine: callbacks run on the caller of Run, and
// no synchronization is required inside components.
//
// # Scheduling
//
// AtCall/AfterCall accept an EventFunc — a top-level function plus a
// context pointer and an int64 argument — and allocate nothing in
// steady state. Every component schedules this way, and the devices'
// completions (Server grants, Pipe arrivals, drive commands, page
// moves) take the same triple. A caller holding a plain func() passes
// it as CallFunc's context: a func value is pointer-shaped, so the
// caller's closure is the only allocation. Events live in free-listed
// records threaded through a hierarchical timing wheel, with no boxing
// or per-event allocation inside the engine.
//
// # Queue discipline
//
// The pending set is a hierarchical timing wheel (4 levels × 256 slots
// covering 2^32 ns beyond the cursor) with a ladder-style overflow list
// for farther-out events. The traffic it serves is a handful of events
// at a time (three quarters of the quick suite's 35.2 M schedules find
// at most 12 pending) with delays of 0.2–128 µs: per-access compute,
// link and DMA grants, Tier-2 moves, SSD service. Those delays exceed
// the 256 ns bottom window, so 89% of events are placed at levels 1–3
// and only 11% at level 0. Pops therefore mostly come from upper levels,
// and the rule that keeps them cheap is the lone-record rule: when level
// 0 is empty, the earliest occupied slot of the lowest non-empty level
// holds the global minimum, and if that slot holds a single record it
// is dispatched directly instead of being re-placed down through the
// levels. About 65% of events leave that way, and an event is placed
// 1.5 times on average. A slot holding several records cascades one
// level down as before.
//
// Dispatch order is bit-exact with a binary min-heap ordered by (time,
// sequence). Slot lists are appended in schedule order and cascades
// walk them in order, so the FIFO tie-break of simultaneous events
// survives every structural move. The lone-record rule cannot break it
// either. Events due at the same instant always share a slot: while a
// record waits at level k, the cursor agrees with its time above byte
// k and is below it in byte k, so any later event due at the same
// instant lands in the same level and slot. A lone record thus has no
// tie to order against, and dispatching it directly leaves the cursor
// on its time, exactly where the walk down would have (see HACKING.md,
// "Scheduler determinism contract"; the differential fuzz test in
// engine_diff_test.go pins the equivalence).
package sim

import (
	"fmt"
	"math/bits"

	"github.com/gmtsim/gmt/internal/invariant"
)

// Time is virtual time in nanoseconds since the start of the run.
type Time = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// EventFunc is the typed callback of the zero-allocation scheduling
// path: a top-level (or otherwise pre-existing) function invoked with
// the context and argument captured at schedule time. Passing a pointer
// as ctx does not allocate; capturing state in a fresh closure would.
type EventFunc func(ctx any, arg int64)

// CallFunc is an EventFunc that invokes its context as a niladic
// function. It is the one adapter from a func() to the typed form:
//
//	eng.AtCall(t, sim.CallFunc, done, 0)
//
// A nil context is tolerated, so a completion nobody waits for is
// written CallFunc with a nil context and still keeps its event.
func CallFunc(ctx any, _ int64) {
	if fn, ok := ctx.(func()); ok && fn != nil {
		fn()
	}
}

// Timing-wheel geometry: wheelLevels levels of wheelSlots slots each.
// Level k buckets times by bits [k*wheelBits, (k+1)*wheelBits) relative
// to the cursor's window, so the wheel spans 2^wheelSpan ns beyond the
// cursor; events farther out wait in the overflow ladder.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelSpan   = wheelBits * wheelLevels
	wheelWords  = wheelSlots / 64
)

// noEvent terminates a slot's singly-linked record list.
const noEvent int32 = -1

// eventRecord is one scheduled event. Records live in a free-listed
// arena owned by the engine: dispatch releases the record (zeroing its
// callback references so dispatched closures become collectable) before
// the callback runs, and the next schedule reuses it.
type eventRecord struct {
	at  Time
	seq int64
	// next links the record into its wheel slot's FIFO list.
	next int32

	// call(ctx, arg) is the event.
	call EventFunc
	ctx  any
	arg  int64
}

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is ready to use.
type Engine struct {
	now Time

	// recs is the record arena; free lists reusable indices. The records
	// named by free[:clean] hold no callback references: none has been
	// acquired since the last sweep, so the drain sweep skips them.
	recs  []eventRecord
	free  []int32
	clean int

	// cur is the wheel cursor: the time of the last structural advance
	// (a pop or an overflow rebase). Invariants: cur <= now, and every
	// pending event's time is >= cur. Slot placement hashes an event's
	// time against cur, so slots behind the cursor are always empty and
	// occupancy-bitmap scans can start at bit 0.
	cur Time
	// head/tail index each slot's FIFO record list; occ is the per-level
	// occupancy bitmap (the head/tail values are meaningful only while
	// the slot's occ bit is set, which is what lets the zero value work).
	// words summarizes occ: bit lvl*wheelWords+w is set iff occ[lvl][w]
	// is non-zero, so finding the earliest slot takes two bit scans.
	head  [wheelLevels][wheelSlots]int32
	tail  [wheelLevels][wheelSlots]int32
	occ   [wheelLevels][wheelWords]uint64
	words uint64

	// overflow is the ladder fallback: events beyond the wheel's span,
	// in schedule order. They re-enter the wheel when it drains and the
	// cursor rebases to overflowMin (the earliest overflow time).
	overflow    []int32
	overflowMin Time

	pending int

	// peekAt caches the earliest pending time (valid while peekOK).
	// Schedules keep it fresh in O(1); pops invalidate it, and the next
	// Peek recomputes from the bitmaps. Across a run each dispatch pays
	// for at most one recompute, so Peek is O(1) amortized.
	peekAt Time
	peekOK bool

	seq   int64
	steps int64

	// Pool conservation counters: every schedule acquires one record,
	// every dispatch releases it. Run asserts they balance (under -tags
	// gmtinvariants), so a pool leak fails loudly instead of silently
	// re-growing the arena.
	acquired int64
	released int64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns a quiescent engine to the state NewEngine constructs,
// retaining the event-record arena so the next run schedules into
// already-allocated records instead of re-growing the pool. It panics if
// events are pending: a reset is only defined at quiescence, where the
// wheel and the overflow ladder are structurally empty and the clock
// plus counters are the entire state.
//
// The free list keeps whatever pop order the previous run left it in.
// That is behavior-neutral: record indices only name storage; dispatch
// order is fully determined by (time, sequence) and slot list order, so
// a reset engine replays any schedule bit-identically to a fresh one
// (pinned by TestEngineResetReplaysIdentically).
func (e *Engine) Reset() {
	if e.pending != 0 {
		panic(fmt.Sprintf("sim: Reset with %d events pending", e.pending))
	}
	if invariant.Enabled {
		invariant.Assert(e.words == 0,
			"sim: Reset found occupied wheel words %#x with nothing pending", e.words)
		for lvl := 0; lvl < wheelLevels; lvl++ {
			for w, word := range e.occ[lvl] {
				invariant.Assert(word == 0,
					"sim: Reset found occupied wheel slots at level %d word %d with nothing pending", lvl, w)
			}
		}
		invariant.Assert(len(e.free) == len(e.recs),
			"sim: Reset found %d free of %d records with nothing pending", len(e.free), len(e.recs))
	}
	e.now, e.cur = 0, 0
	e.seq, e.steps = 0, 0
	e.overflow = e.overflow[:0]
	e.overflowMin = 0
	e.peekAt, e.peekOK = 0, false
	e.acquired, e.released = 0, 0
	// Sweep retained callback references (a drain via RunUntil does not
	// sweep the way Run does), so nothing scheduled in the previous run
	// outlives it through the free list.
	e.sweep()
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been dispatched so far.
func (e *Engine) Steps() int64 { return e.steps }

// Pending reports how many events are scheduled but not yet dispatched.
func (e *Engine) Pending() int { return e.pending }

// Peek reports the time of the earliest pending event, without
// dispatching or restructuring anything. It is the guard the
// synchronous-completion fast path consults before advancing time
// inline: AdvanceTo(t) is legal only while Peek is absent or strictly
// later than t (see HACKING.md, "Scheduler determinism contract").
//
//gmt:hotpath
func (e *Engine) Peek() (Time, bool) {
	if e.pending == 0 {
		return 0, false
	}
	if !e.peekOK {
		e.peekAt = e.findMin()
		e.peekOK = true
	}
	return e.peekAt, true
}

// AdvanceTo moves the clock forward to t without dispatching anything.
// The caller must have established — via Peek — that no pending event is
// due at or before t; violating that would let the inline advance
// reorder the dispatch sequence, so it is asserted under -tags
// gmtinvariants. A backwards target panics unconditionally.
//
//gmt:hotpath
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo target %d behind clock %d", t, e.now))
	}
	if invariant.Enabled {
		if at, ok := e.Peek(); ok {
			invariant.Assert(at > t,
				"sim: AdvanceTo(%d) would skip the pending event at %d", t, at)
		}
	}
	e.now = t
}

// AtCall schedules call(ctx, arg) at virtual time t. Scheduling in the
// past panics: it always indicates a modeling bug. No allocation happens
// in steady state: the callback is a shared function value and the
// context travels as a pointer.
//
//gmt:hotpath
func (e *Engine) AtCall(t Time, call EventFunc, ctx any, arg int64) {
	e.schedule(t, call, ctx, arg)
}

// AfterCall schedules call(ctx, arg) d nanoseconds from now. Negative d
// panics.
//
//gmt:hotpath
func (e *Engine) AfterCall(d Time, call EventFunc, ctx any, arg int64) {
	e.schedule(e.now+d, call, ctx, arg)
}

func (e *Engine) schedule(t Time, call EventFunc, ctx any, arg int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	id := e.acquireRecord()
	r := &e.recs[id]
	r.at = t
	r.seq = e.seq
	r.call = call
	r.ctx = ctx
	r.arg = arg
	e.place(id, t)
	e.pending++
	// Keep the cached minimum exact: a first event defines it, an
	// earlier event lowers it, a later one cannot disturb it.
	if e.pending == 1 || (e.peekOK && t < e.peekAt) {
		e.peekAt = t
		e.peekOK = true
	}
}

// place threads record id (due at t) onto its wheel slot, or onto the
// overflow ladder when t is beyond the wheel's span. The level is the
// highest byte in which t differs from the cursor, so every event below
// the current level-0 window boundary sits in the bottom wheel where its
// slot denotes an exact instant. Appending at the tail preserves
// schedule (sequence) order within a slot.
func (e *Engine) place(id int32, t Time) {
	diff := t ^ e.cur
	if diff>>wheelSpan != 0 {
		if len(e.overflow) == 0 || t < e.overflowMin {
			e.overflowMin = t
		}
		e.overflow = append(e.overflow, id)
		return
	}
	lvl := 0
	if diff != 0 {
		lvl = (bits.Len64(uint64(diff)) - 1) / wheelBits
	}
	s := int(t>>(uint(lvl)*wheelBits)) & wheelMask
	w, bit := s>>6, uint64(1)<<(uint(s)&63)
	e.recs[id].next = noEvent
	if e.occ[lvl][w]&bit != 0 {
		e.recs[e.tail[lvl][s]].next = id
	} else {
		e.occ[lvl][w] |= bit
		e.words |= 1 << uint(lvl*wheelWords+w)
		e.head[lvl][s] = id
	}
	e.tail[lvl][s] = id
}

// clearSlot marks slot s of level lvl empty.
func (e *Engine) clearSlot(lvl, s int) {
	w := s >> 6
	if e.occ[lvl][w] &^= 1 << (uint(s) & 63); e.occ[lvl][w] == 0 {
		e.words &^= 1 << uint(lvl*wheelWords+w)
	}
}

// first reports the earliest occupied wheel slot. Levels are strictly
// ordered in time (everything at level k+1 is later than everything at
// level k or below) and slots behind the cursor are empty by invariant,
// so the lowest set bit of the lowest non-empty level is the earliest.
func (e *Engine) first() (lvl, s int, ok bool) {
	if e.words == 0 {
		return 0, 0, false
	}
	b := bits.TrailingZeros64(e.words)
	lvl, w := b/wheelWords, b%wheelWords
	return lvl, w<<6 | bits.TrailingZeros64(e.occ[lvl][w]), true
}

// findMin computes the earliest pending time without mutating the
// wheel: a level-0 slot is an exact instant; higher up the earliest
// slot's list is scanned for its earliest member.
func (e *Engine) findMin() Time {
	lvl, s, ok := e.first()
	if !ok {
		return e.overflowMin
	}
	id := e.head[lvl][s]
	min := e.recs[id].at
	if lvl == 0 {
		return min
	}
	for id = e.recs[id].next; id != noEvent; id = e.recs[id].next {
		if at := e.recs[id].at; at < min {
			min = at
		}
	}
	return min
}

// pop removes and returns the earliest pending record, advancing the
// cursor to its time. The earliest occupied slot decides: at level 0 it
// is an exact instant and its head pops in O(1); higher up, a lone
// record dispatches directly (the lone-record rule, see the package
// comment) and a shared slot cascades down (amortized O(1) per event,
// since each event moves down at most wheelLevels-1 times). A fully
// drained wheel rebases onto the overflow ladder.
func (e *Engine) pop() int32 {
	for {
		lvl, s, ok := e.first()
		if !ok {
			e.rebase()
			continue
		}
		id := e.head[lvl][s]
		nxt := e.recs[id].next
		if nxt != noEvent && lvl != 0 {
			e.clearSlot(lvl, s)
			e.cascade(lvl, s, id)
			continue
		}
		if nxt == noEvent {
			e.clearSlot(lvl, s)
		} else {
			e.head[lvl][s] = nxt
		}
		e.cur = e.recs[id].at
		e.pending--
		e.peekOK = false
		return id
	}
}

// rebase is the ladder fallback: the wheel is empty, so nothing is
// pending before overflowMin and the cursor can rebase there. Replaying
// the ladder in schedule order re-splits it: events inside the new span
// enter the wheel (equal-time FIFO intact), the rest stay behind with a
// recomputed minimum.
func (e *Engine) rebase() {
	if len(e.overflow) == 0 {
		panic("sim: pop from an empty engine")
	}
	e.cur = e.overflowMin
	ovf := e.overflow
	e.overflow = e.overflow[:0]
	for _, id := range ovf {
		// In-place refill over the shared backing array is safe: when
		// entry i is read (copied out by range) at most i entries have
		// been re-appended, so writes trail reads.
		e.place(id, e.recs[id].at)
	}
}

// cascade moves the record list headed by id, just unlinked from slot s
// of level lvl, down one level (or more), advancing the cursor to the
// slot's window start. Walking the list in order and tail-appending
// keeps the per-instant FIFO intact: equal-time events can only share a
// slot in schedule order.
func (e *Engine) cascade(lvl, s int, id int32) {
	shift := uint(lvl) * wheelBits
	e.cur = e.cur&^(1<<(shift+wheelBits)-1) | Time(s)<<shift
	for id != noEvent {
		nxt := e.recs[id].next
		e.place(id, e.recs[id].at)
		id = nxt
	}
}

// acquireRecord pops a free record index, growing the arena only when
// the free list is empty (i.e. only while the peak event population is
// still growing).
func (e *Engine) acquireRecord() int32 {
	e.acquired++
	if n := len(e.free) - 1; n >= 0 {
		id := e.free[n]
		e.free = e.free[:n]
		if n < e.clean {
			e.clean = n
		}
		return id
	}
	e.recs = append(e.recs, eventRecord{})
	return int32(len(e.recs) - 1)
}

// releaseRecord returns the index to the free list. The record's
// callback and context fields are deliberately NOT zeroed here: the
// next schedule overwrites every field, so zeroing per event would pay
// a typed memclr plus write barriers only to be overwritten. A free
// record therefore pins its last call/ctx until reuse — transiently,
// bounded by the arena (peak concurrent events), and in practice those
// are pooled pipeline records that outlive the engine anyway. Run()
// sweeps every record used since the previous drain, so nothing
// outlives the simulation it belongs to.
func (e *Engine) releaseRecord(id int32) {
	e.released++
	e.free = append(e.free, id)
}

// Run dispatches events until none remain, advancing the clock. On
// completion it asserts event-pool conservation (gmtinvariants builds):
// every acquired record must have been released back to the free list.
//
//gmt:hotpath
//gmt:blocking
func (e *Engine) Run() {
	for e.pending > 0 {
		e.step()
	}
	if invariant.Enabled {
		invariant.Assert(e.acquired == e.released,
			"sim: event pool leak: %d records acquired, %d released", e.acquired, e.released)
		invariant.Assert(len(e.free) == len(e.recs),
			"sim: event pool leak: %d free of %d records after drain", len(e.free), len(e.recs))
	}
	// Drop callback/context references retained by free records (see
	// releaseRecord): one sweep at drain instead of a typed memclr per
	// event, so dispatched closures and their captures do not outlive the
	// run.
	e.sweep()
}

// sweep clears the callback references of every free record acquired
// since the last sweep. The free list is LIFO, so those are exactly the
// records above free[:clean]; the rest of the arena is already clean.
func (e *Engine) sweep() {
	for _, id := range e.free[e.clean:] {
		e.recs[id].call, e.recs[id].ctx = nil, nil
	}
	e.clean = len(e.free)
}

// RunUntil dispatches events with time <= t, then sets the clock to t.
// A target behind the current clock panics: the clock is monotonic, and
// a backwards target always indicates a harness bug (the same
// invariant the dispatcher asserts per event under -tags gmtinvariants).
//
//gmt:hotpath
//gmt:blocking
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil target %d behind clock %d", t, e.now))
	}
	for e.pending > 0 {
		if at, _ := e.Peek(); at > t {
			break
		}
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

func (e *Engine) step() {
	var peeked Time
	if invariant.Enabled {
		peeked, _ = e.Peek()
	}
	id := e.pop()
	r := &e.recs[id]
	invariant.Assert(r.at >= e.now,
		"sim: clock would run backwards: dispatching event at %d with clock at %d", r.at, e.now)
	if invariant.Enabled {
		invariant.Assert(peeked == r.at,
			"sim: Peek promised %d but dispatch popped %d", peeked, r.at)
	}
	e.now = r.at
	e.steps++
	call, ctx, arg := r.call, r.ctx, r.arg
	// Release before dispatch: the record (and its references) is
	// already recycled when the callback runs, so a callback scheduling
	// new events reuses it immediately.
	e.releaseRecord(id)
	call(ctx, arg)
}
