package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.AtCall(30, CallFunc, func() { got = append(got, 3) }, 0)
	e.AtCall(10, CallFunc, func() { got = append(got, 1) }, 0)
	e.AtCall(20, CallFunc, func() { got = append(got, 2) }, 0)
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtCall(100, CallFunc, func() { got = append(got, i) }, 0)
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.AfterCall(5, CallFunc, func() {
		times = append(times, e.Now())
		e.AfterCall(7, CallFunc, func() {
			times = append(times, e.Now())
		}, 0)
	}, 0)
	e.Run()
	if times[0] != 5 || times[1] != 12 {
		t.Fatalf("times = %v, want [5 12]", times)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.AtCall(10, CallFunc, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtCall(5, CallFunc, func() {}, 0)
	}, 0)
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.AtCall(10, CallFunc, func() { fired++ }, 0)
	e.AtCall(20, CallFunc, func() { fired++ }, 0)
	e.AtCall(30, CallFunc, func() { fired++ }, 0)
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3 after Run", fired)
	}
}

func TestEngineSteps(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.AtCall(Time(i), CallFunc, func() {}, 0)
	}
	e.Run()
	if e.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", e.Steps())
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// insertion order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		for i := 0; i < int(n)+1; i++ {
			at := Time(rng.Intn(1000))
			e.AtCall(at, CallFunc, func() { fired = append(fired, e.Now()) }, 0)
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServerCapacity(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 2)
	var order []int
	start := func(id int, hold Time) {
		s.AcquireCall(CallFunc, func() {
			order = append(order, id)
			e.AfterCall(hold, CallFunc, s.Release, 0)
		}, 0)
	}
	start(1, 10)
	start(2, 10)
	start(3, 10) // must wait for 1 or 2
	if s.InUse() != 2 || s.Queued() != 1 {
		t.Fatalf("InUse=%d Queued=%d, want 2,1", s.InUse(), s.Queued())
	}
	e.Run()
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("grant order = %v", order)
	}
}

func TestServerFIFOGrants(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	var order []int
	for i := 1; i <= 5; i++ {
		i := i
		s.AcquireCall(CallFunc, func() {
			order = append(order, i)
			e.AfterCall(1, CallFunc, s.Release, 0)
		}, 0)
	}
	e.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i+1 {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
	if s.Grants() != 5 {
		t.Fatalf("Grants = %d, want 5", s.Grants())
	}
}

func TestServerReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	NewServer(NewEngine(), 1).Release()
}

func TestPipeBandwidth(t *testing.T) {
	e := NewEngine()
	// 1 GB/s: 1000 bytes take 1000ns.
	p := NewPipe(e, 1_000_000_000, 0)
	var doneAt Time
	p.TransferCall(1000, CallFunc, func() { doneAt = e.Now() }, 0)
	e.Run()
	if doneAt != 1000 {
		t.Fatalf("1000B @ 1GB/s done at %d, want 1000", doneAt)
	}
}

func TestPipeSerialization(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 0)
	var ends []Time
	for i := 0; i < 3; i++ {
		p.TransferCall(1000, CallFunc, func() { ends = append(ends, e.Now()) }, 0)
	}
	e.Run()
	want := []Time{1000, 2000, 3000}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestPipePipelinedLatency(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 500)
	var ends []Time
	p.TransferCall(1000, CallFunc, func() { ends = append(ends, e.Now()) }, 0)
	p.TransferCall(1000, CallFunc, func() { ends = append(ends, e.Now()) }, 0)
	e.Run()
	// Latency delays completion but transfers still stream back to back:
	// 1000+500, 2000+500 — not 1500+1500.
	if ends[0] != 1500 || ends[1] != 2500 {
		t.Fatalf("ends = %v, want [1500 2500]", ends)
	}
}

func TestPipeIdleGap(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 0)
	var end Time
	e.AtCall(5000, CallFunc, func() {
		p.TransferCall(1000, CallFunc, func() { end = e.Now() }, 0)
	}, 0)
	e.Run()
	if end != 6000 {
		t.Fatalf("end = %d, want 6000 (transfer starts at submission)", end)
	}
}

// Property: cumulative pipe busy time equals the sum of per-transfer
// occupancy regardless of submission pattern.
func TestPipeBusyConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		p := NewPipe(e, 3_200_000_000, 100)
		var want Time
		for i := 0; i < int(n)+1; i++ {
			sz := int64(rng.Intn(1<<16) + 1)
			want += p.TransferTime(sz)
			at := Time(rng.Intn(10000))
			e.AtCall(at, CallFunc, func() { p.TransferCall(sz, CallFunc, nil, 0) }, 0)
		}
		e.Run()
		return p.BusyTime() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipeTransferLimited(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 0) // 1 GB/s pipe
	var ends []Time
	// A requester limited to 0.5 GB/s occupies the pipe twice as long.
	p.TransferLimitedCall(1000, 500_000_000, CallFunc, func() { ends = append(ends, e.Now()) }, 0)
	// A faster-than-pipe requester is clamped to the pipe rate.
	p.TransferLimitedCall(1000, 2_000_000_000, CallFunc, func() { ends = append(ends, e.Now()) }, 0)
	e.Run()
	if ends[0] != 2000 {
		t.Fatalf("limited transfer ended at %d, want 2000", ends[0])
	}
	if ends[1] != 3000 {
		t.Fatalf("clamped transfer ended at %d, want 3000", ends[1])
	}
}

func TestPipeBacklogAndStats(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 0)
	p.TransferCall(5000, CallFunc, nil, 0)
	if p.Backlog() != 5000 {
		t.Fatalf("backlog = %d, want 5000", p.Backlog())
	}
	e.Run()
	if p.Backlog() != 0 {
		t.Fatalf("backlog after drain = %d", p.Backlog())
	}
	if p.Bytes() != 5000 || p.Transfers() != 1 {
		t.Fatalf("bytes=%d transfers=%d", p.Bytes(), p.Transfers())
	}
}

func TestServerQueueStats(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	for i := 0; i < 4; i++ {
		s.AcquireCall(CallFunc, func() { e.AfterCall(10, CallFunc, s.Release, 0) }, 0)
	}
	if s.MaxQueue() != 3 {
		t.Fatalf("MaxQueue = %d, want 3", s.MaxQueue())
	}
	e.Run()
	if s.InUse() != 0 || s.Queued() != 0 {
		t.Fatal("server not drained")
	}
}

func TestEnginePendingAndZeroCapacityPanics(t *testing.T) {
	e := NewEngine()
	e.AtCall(5, CallFunc, func() {}, 0)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d", e.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 server did not panic")
		}
	}()
	NewServer(e, 0)
}

func TestPipeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-bandwidth pipe did not panic")
		}
	}()
	NewPipe(NewEngine(), 0, 0)
}

func TestPipeMinimumOccupancy(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000_000, 0) // 1 TB/s: 1 byte would be <1ns
	if got := p.TransferTime(1); got != 1 {
		t.Fatalf("TransferTime(1) = %d, want clamped to 1ns", got)
	}
}

// TestPopReleasesDispatchedEvents is the closure-retention regression:
// after Run() drains, no arena record may still hold a dispatched
// event's callback, so closures — and everything they capture — become
// collectable instead of lingering for the life of the engine. (Free
// records may pin their last callback transiently DURING a run; the
// drain sweep in Run bounds that retention to the simulation itself.)
// Later runs reuse only part of the arena, and the sweep, which visits
// just the records used since the previous one, must still catch them
// all; so must Reset after a RunUntil drain.
func TestPopReleasesDispatchedEvents(t *testing.T) {
	e := NewEngine()
	swept := func(when string) {
		t.Helper()
		if e.Pending() != 0 {
			t.Fatalf("%s: events remain: %d", when, e.Pending())
		}
		for i := range e.recs {
			r := &e.recs[i]
			if r.call != nil || r.ctx != nil {
				t.Fatalf("%s: record %d still holds a dispatched event's callback", when, i)
			}
		}
	}
	const n = 16
	for round, k := range []int{n, 1, 3, n / 2} {
		for i := 0; i < k; i++ {
			i := i
			e.AfterCall(Time(i), CallFunc, func() { _ = i }, 0)
		}
		e.Run()
		swept(fmt.Sprintf("Run, round %d", round))
	}
	e.AfterCall(5, CallFunc, func() {}, 0)
	e.RunUntil(e.Now() + 10)
	e.Reset()
	swept("Reset")
	if len(e.recs) != n {
		t.Fatalf("arena grew to %d records, want %d", len(e.recs), n)
	}
}

// countCall is a shared EventFunc for the typed-path tests.
func countCall(ctx any, arg int64) {
	s := ctx.(*[]int64)
	*s = append(*s, arg)
}

func TestEngineTypedPathOrdering(t *testing.T) {
	e := NewEngine()
	var got []int64
	e.AtCall(30, countCall, &got, 3)
	e.AtCall(10, countCall, &got, 1)
	e.AtCall(20, CallFunc, func() { got = append(got, 2) }, 0)
	e.AfterCall(25, countCall, &got, 4) // now=0, fires at 25
	e.Run()
	want := []int64{1, 2, 4, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("typed/compat interleaving = %v, want %v", got, want)
		}
	}
}

func TestEngineCallFunc(t *testing.T) {
	e := NewEngine()
	fired := false
	e.AtCall(5, CallFunc, func() { fired = true }, 0)
	e.AtCall(6, CallFunc, (func())(nil), 0) // nil callback tolerated
	e.Run()
	if !fired {
		t.Fatal("CallFunc did not invoke its context function")
	}
	if e.Now() != 6 {
		t.Fatalf("Now = %d, want 6", e.Now())
	}
}

func TestEnginePastTypedSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.AtCall(10, CallFunc, func() {
		defer func() {
			if recover() == nil {
				t.Error("typed scheduling in the past did not panic")
			}
		}()
		e.AtCall(5, CallFunc, nil, 0)
	}, 0)
	e.Run()
}

func TestEngineRunUntilBackwardsPanics(t *testing.T) {
	e := NewEngine()
	e.AtCall(10, CallFunc, func() {}, 0)
	e.RunUntil(50)
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("RunUntil with a backwards target did not panic")
		}
	}()
	e.RunUntil(49)
}

// TestEnginePoolConservation checks the free-list accounting the
// gmtinvariants build asserts at the end of Run: after a drain, every
// acquired record is back on the free list.
func TestEnginePoolConservation(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.AtCall(Time(i%7), CallFunc, func() {
			e.AfterCall(3, CallFunc, (func())(nil), 0)
		}, 0)
	}
	e.Run()
	if e.acquired != e.released {
		t.Fatalf("pool leak: %d acquired, %d released", e.acquired, e.released)
	}
	if len(e.free) != len(e.recs) {
		t.Fatalf("pool leak: %d free of %d records", len(e.free), len(e.recs))
	}
	if e.acquired != 200 {
		t.Fatalf("acquired = %d, want 200", e.acquired)
	}
}

func TestEnginePeek(t *testing.T) {
	e := NewEngine()
	if _, ok := e.Peek(); ok {
		t.Fatal("Peek on an empty engine reported an event")
	}
	e.AtCall(30, CallFunc, func() {}, 0)
	e.AtCall(10, CallFunc, func() {}, 0)
	if at, ok := e.Peek(); !ok || at != 10 {
		t.Fatalf("Peek = %d,%v, want 10,true", at, ok)
	}
	e.AtCall(5, CallFunc, func() {}, 0)
	if at, ok := e.Peek(); !ok || at != 5 {
		t.Fatalf("Peek after earlier schedule = %d,%v, want 5,true", at, ok)
	}
	// Peek must not dispatch or restructure: the full run still fires
	// everything in order.
	var fired []Time
	e.AtCall(20, CallFunc, func() { fired = append(fired, e.Now()) }, 0)
	e.Run()
	if e.Steps() != 4 || e.Now() != 30 {
		t.Fatalf("after run: steps=%d now=%d, want 4, 30", e.Steps(), e.Now())
	}
}

// TestEnginePeekAgreesWithDispatch pins the acceptance criterion that
// Peek and Pending agree with dispatch reality at every step.
func TestEnginePeekAgreesWithDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	n, rescheduled := 500, 0
	var sink EventFunc
	sink = func(ctx any, arg int64) {
		if n > 0 {
			n--
			rescheduled++
			e.AfterCall(Time(rng.Intn(5000)), sink, nil, 0)
		}
	}
	for i := 0; i < 32; i++ {
		e.AfterCall(Time(rng.Intn(1<<20)), sink, nil, 0)
	}
	for e.Pending() > 0 {
		at, ok := e.Peek()
		if !ok {
			t.Fatal("Peek empty while Pending > 0")
		}
		before, schedBefore := e.Pending(), rescheduled
		e.step()
		if e.Now() != at {
			t.Fatalf("dispatched at %d, Peek promised %d", e.Now(), at)
		}
		if want := before - 1 + (rescheduled - schedBefore); e.Pending() != want {
			t.Fatalf("Pending %d -> %d across one step, want %d", before, e.Pending(), want)
		}
	}
}

func TestEngineAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.AtCall(100, CallFunc, func() {}, 0)
	e.AdvanceTo(40)
	if e.Now() != 40 {
		t.Fatalf("Now = %d, want 40", e.Now())
	}
	e.AdvanceTo(40) // idempotent
	e.Run()
	if e.Now() != 100 || e.Steps() != 1 {
		t.Fatalf("after run: now=%d steps=%d", e.Now(), e.Steps())
	}
	defer func() {
		if recover() == nil {
			t.Error("backwards AdvanceTo did not panic")
		}
	}()
	e.AdvanceTo(99)
}

// TestEngineFarEvents exercises the overflow ladder: events beyond the
// wheel's span (2^32 ns past the cursor) must still dispatch in exact
// time-then-FIFO order, including equal-time pairs straddling the
// rebase.
func TestEngineFarEvents(t *testing.T) {
	e := NewEngine()
	var got []int
	const far = Time(1) << 40
	e.AtCall(far+5, CallFunc, func() { got = append(got, 4) }, 0)
	e.AtCall(3, CallFunc, func() { got = append(got, 1) }, 0)
	e.AtCall(far+5, CallFunc, func() { got = append(got, 5) }, 0) // same instant, FIFO after 4
	e.AtCall(far, CallFunc, func() { got = append(got, 3) }, 0)
	e.AtCall(1<<33, CallFunc, func() { got = append(got, 2) }, 0)
	e.Run()
	want := []int{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("far-event order = %v, want %v", got, want)
		}
	}
	if e.Now() != far+5 {
		t.Fatalf("Now = %d, want %d", e.Now(), far+5)
	}
}

// TestEngineCascadeFIFO pins FIFO preservation across cascades: events
// at one instant far enough out to start life in an upper wheel level
// must still fire in scheduling order after migrating down.
func TestEngineCascadeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	const at = Time(3)<<24 | Time(5)<<16 | Time(7)<<8 | 9 // occupies all levels
	for i := 0; i < 64; i++ {
		i := i
		e.AtCall(at, CallFunc, func() { got = append(got, i) }, 0)
		// Interleave other instants in the same upper-level slots so the
		// cascade has to split mixed lists.
		e.AtCall(at+Time(i%3)+1, CallFunc, func() {}, 0)
	}
	e.Run()
	if len(got) != 64 {
		t.Fatalf("fired %d of 64", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("cascade broke FIFO: %v", got)
		}
	}
}

// slotLevel reports the wheel level holding the pending record due at
// at, or -1 when no wheel slot holds one (overflow ladder, or gone).
func slotLevel(e *Engine, at Time) int {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for s := 0; s < wheelSlots; s++ {
			if e.occ[lvl][s>>6]&(1<<(uint(s)&63)) == 0 {
				continue
			}
			for id := e.head[lvl][s]; id != noEvent; id = e.recs[id].next {
				if e.recs[id].at == at {
					return lvl
				}
			}
		}
	}
	return -1
}

// stepExpect peeks, dispatches one event, and checks it was the one
// tagged want, due at at, leaving clock and cursor on its time.
func stepExpect(t *testing.T, e *Engine, got *[]int64, want int64, at Time) {
	t.Helper()
	if p, ok := e.Peek(); !ok || p != at {
		t.Fatalf("Peek = %d,%v before dispatching %d, want %d", p, ok, want, at)
	}
	n := len(*got)
	e.step()
	if len(*got) != n+1 || (*got)[n] != want {
		t.Fatalf("dispatched %v, want %d next", (*got)[n:], want)
	}
	if e.Now() != at || e.cur != at {
		t.Fatalf("after dispatching %d: now=%d cur=%d, want both %d", want, e.Now(), e.cur, at)
	}
}

// TestEngineLoneDispatch pins the lone-record rule. With level 0 empty,
// a record alone in the earliest slot of an upper level dispatches
// straight from there, and must leave the engine where walking it down
// the levels would have: clock and cursor on its time, the peek cache
// recomputed, and later events still in their slots.
func TestEngineLoneDispatch(t *testing.T) {
	for _, c := range []struct {
		lvl       int
		at, later Time
	}{
		{1, 900, 2 * Microsecond},
		{2, 85 * Microsecond, 140 * Microsecond},
		{3, 30 * Millisecond, 40 * Millisecond},
	} {
		e := NewEngine()
		var got []int64
		e.AtCall(c.at, countCall, &got, 1)
		e.AtCall(c.later, countCall, &got, 2)
		if lvl := slotLevel(e, c.at); lvl != c.lvl {
			t.Fatalf("event at %d placed at level %d, want %d", c.at, lvl, c.lvl)
		}
		stepExpect(t, e, &got, 1, c.at)
		if lvl := slotLevel(e, c.later); lvl != c.lvl {
			t.Fatalf("level %d: later event moved to level %d", c.lvl, lvl)
		}
		// The cursor now sits on the dispatched time, so a short delay
		// lands in the bottom window and overtakes the later event.
		e.AfterCall(3, countCall, &got, 3)
		if lvl := slotLevel(e, c.at+3); lvl != 0 {
			t.Fatalf("level %d: follow-up placed at level %d, want 0", c.lvl, lvl)
		}
		stepExpect(t, e, &got, 3, c.at+3)
		stepExpect(t, e, &got, 2, c.later)
		if e.Pending() != 0 {
			t.Fatalf("level %d: %d events left", c.lvl, e.Pending())
		}
	}
}

// TestEngineLoneDispatchAfterRebase dispatches lone records from levels
// 1–3 right after the overflow ladder re-splits into the wheel.
func TestEngineLoneDispatchAfterRebase(t *testing.T) {
	e := NewEngine()
	var got []int64
	const far = Time(1) << 33
	times := []Time{far, far + 900, far + 85*Microsecond, far + 30*Millisecond}
	for i := len(times) - 1; i >= 0; i-- {
		e.AtCall(times[i], countCall, &got, int64(i))
	}
	for _, at := range times {
		if lvl := slotLevel(e, at); lvl != -1 {
			t.Fatalf("event at %d in wheel level %d before the rebase", at, lvl)
		}
	}
	stepExpect(t, e, &got, 0, far)
	for i, at := range times[1:] {
		if lvl := slotLevel(e, at); lvl != i+1 {
			t.Fatalf("after rebase: event at %d on level %d, want %d", at, lvl, i+1)
		}
	}
	for i, at := range times[1:] {
		stepExpect(t, e, &got, int64(i+1), at)
	}
}

// TestEngineRunUntilBetweenLoneEvents stops RunUntil between two lone
// upper-level events and schedules into the gap.
func TestEngineRunUntilBetweenLoneEvents(t *testing.T) {
	e := NewEngine()
	var got []int64
	e.AtCall(85*Microsecond, countCall, &got, 1)
	e.AtCall(140*Microsecond, countCall, &got, 2)
	e.RunUntil(100 * Microsecond)
	if len(got) != 1 || e.Now() != 100*Microsecond || e.Pending() != 1 {
		t.Fatalf("RunUntil(100µs): fired %v, now %d, %d pending", got, e.Now(), e.Pending())
	}
	if at, ok := e.Peek(); !ok || at != 140*Microsecond {
		t.Fatalf("Peek = %d,%v, want 140µs", at, ok)
	}
	e.AtCall(120*Microsecond, countCall, &got, 3)
	if at, _ := e.Peek(); at != 120*Microsecond {
		t.Fatalf("Peek = %d after scheduling into the gap, want 120µs", at)
	}
	e.RunUntil(140 * Microsecond)
	if want := []int64{1, 3, 2}; len(got) != 3 || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestEngineQuiescentAfterLoneDispatch resets an engine whose last
// dispatch came straight from an upper level.
func TestEngineQuiescentAfterLoneDispatch(t *testing.T) {
	e := NewEngine()
	var got []int64
	e.AtCall(85*Microsecond, countCall, &got, 1)
	stepExpect(t, e, &got, 1, 85*Microsecond)

	e.Reset()
	e.AtCall(900, countCall, &got, 3)
	if lvl := slotLevel(e, 900); lvl != 1 {
		t.Fatalf("after Reset: event at 900 on level %d, want 1", lvl)
	}
	stepExpect(t, e, &got, 3, 900)
	if e.Steps() != 1 {
		t.Fatalf("after Reset: steps=%d, want 1", e.Steps())
	}
}

// TestEngineRunUntilAcrossWindows stops between events that live in
// different wheel levels and verifies nothing beyond the target fires.
func TestEngineRunUntilAcrossWindows(t *testing.T) {
	e := NewEngine()
	var fired []Time
	times := []Time{1, 200, 70_000, 20_000_000, 1 << 34}
	for _, at := range times {
		at := at
		e.AtCall(at, CallFunc, func() { fired = append(fired, at) }, 0)
	}
	e.RunUntil(70_000)
	if len(fired) != 3 || e.Now() != 70_000 {
		t.Fatalf("fired=%v now=%d, want 3 events and now=70000", fired, e.Now())
	}
	if at, ok := e.Peek(); !ok || at != 20_000_000 {
		t.Fatalf("Peek = %d,%v, want 20000000,true", at, ok)
	}
	e.Run()
	if len(fired) != len(times) {
		t.Fatalf("fired %d of %d after Run", len(fired), len(times))
	}
}

// TestEngineRecordReuse pins the pooling behavior: once the peak event
// population has been reached, further scheduling reuses records instead
// of growing the arena.
func TestEngineRecordReuse(t *testing.T) {
	e := NewEngine()
	var chain EventFunc
	remaining := 1000
	chain = func(ctx any, arg int64) {
		if remaining > 0 {
			remaining--
			e.AfterCall(1, chain, nil, 0)
		}
	}
	e.AfterCall(1, chain, nil, 0)
	e.Run()
	if len(e.recs) != 1 {
		t.Fatalf("arena grew to %d records for a 1-deep event chain", len(e.recs))
	}
}
