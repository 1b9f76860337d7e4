package sim

import (
	"testing"

	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/raceflag"
)

// Microbenchmarks and allocation gates for the engine's schedule/dispatch
// cycle. AtCall/AfterCall must be allocation-free in steady state; a
// closure scheduled through CallFunc may pay for the caller's closure
// but nothing engine-side.

func nopCall(any, int64) {}

// BenchmarkScheduleDispatchTyped measures one schedule+dispatch cycle on
// the typed path. Steady state is 0 allocs/op.
func BenchmarkScheduleDispatchTyped(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(1, nopCall, nil, 0)
		e.Run()
	}
}

// BenchmarkScheduleDispatchClosure measures a capturing closure
// scheduled through the CallFunc adapter — what all device packages paid
// per event before the typed path existed. The delta against the typed
// benchmark is the per-event saving.
func BenchmarkScheduleDispatchClosure(b *testing.B) {
	e := NewEngine()
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(1, CallFunc, func() { sink = i }, 0)
		e.Run()
	}
	_ = sink
}

// BenchmarkScheduleDispatchDeep measures schedule+dispatch with a large
// pending population: long slot lists at level 0.
func BenchmarkScheduleDispatchDeep(b *testing.B) {
	e := NewEngine()
	const depth = 1024
	for i := 0; i < depth; i++ {
		e.AfterCall(Time(1+i%97), nopCall, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(Time(1+i%97), nopCall, nil, 0)
		e.step()
	}
	b.StopTimer()
	e.Run()
}

// mixedDeltas cycles successor delays through the quick suite's
// measured delay histogram, one entry per ~6% of its 35.2 M schedules:
// per-access compute (200 ns), NVMe command overhead (2 µs), 64 KiB
// page transfers (~20 µs), SSD reads (85 µs) and the rest, 85% of all
// schedules in all. Only entries under 256 ns can start in the bottom
// window.
var mixedDeltas = [...]Time{
	0, 50, 200, 200, 200,
	2 * Microsecond, 2 * Microsecond, 4 * Microsecond, 6020, 12 * Microsecond,
	19275, 20480, 21380, 30 * Microsecond, 59565, 85 * Microsecond,
}

// mixedPending is the pending population of the mixed benchmark: three
// quarters of the quick suite's schedules find at most 12 events
// pending, most of them 7–12.
const mixedPending = 12

// BenchmarkScheduleDispatchMixed measures schedule+dispatch on traffic
// shaped like the simulator's: about a dozen events pending, and every
// dispatch followed by one successor whose delay cycles through
// mixedDeltas. Steady state is 0 allocs/op.
func BenchmarkScheduleDispatchMixed(b *testing.B) {
	e := NewEngine()
	for i := 0; i < mixedPending; i++ {
		e.AfterCall(mixedDeltas[i%len(mixedDeltas)], nopCall, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(mixedDeltas[i%len(mixedDeltas)], nopCall, nil, 0)
		e.step()
	}
	b.StopTimer()
	e.Run()
}

// allocGatesEnabled reports whether allocation-exactness assertions are
// meaningful for this build: race instrumentation and gmtinvariants
// assertions both allocate on paths the default build keeps clean.
func allocGatesEnabled() bool { return !raceflag.Enabled && !invariant.Enabled }

// TestScheduleDispatchAllocGate is the CI gate for the tentpole's
// engine half: a steady-state schedule+dispatch cycle on the typed path
// performs zero allocations, and a closure scheduled through CallFunc
// allocates only the caller's closure (at most 1/op) — at least 2x
// fewer than the old closure+interface-boxing representation's 2/op.
func TestScheduleDispatchAllocGate(t *testing.T) {
	if !allocGatesEnabled() {
		t.Skip("allocation gates run on the default build only")
	}
	e := NewEngine()
	// Warm the arena, free list, and heap to steady-state capacity.
	for i := 0; i < 1024; i++ {
		e.AfterCall(Time(i%13), nopCall, nil, 0)
	}
	e.Run()

	typed := testing.AllocsPerRun(200, func() {
		e.AfterCall(1, nopCall, nil, 0)
		e.AfterCall(2, nopCall, e, 7)
		e.Run()
	})
	if typed != 0 {
		t.Errorf("typed schedule+dispatch = %.1f allocs/op, want 0", typed)
	}

	for i := 0; i < mixedPending; i++ {
		e.AfterCall(mixedDeltas[i%len(mixedDeltas)], nopCall, nil, 0)
	}
	next := 0
	mixed := testing.AllocsPerRun(200, func() {
		e.AfterCall(mixedDeltas[next%len(mixedDeltas)], nopCall, nil, 0)
		e.step()
		next++
	})
	e.Run()
	if mixed != 0 {
		t.Errorf("mixed-delta schedule+dispatch = %.1f allocs/op, want 0", mixed)
	}

	sink := 0
	compat := testing.AllocsPerRun(200, func() {
		e.AfterCall(1, CallFunc, func() { sink++ }, 0)
		e.Run()
	})
	if compat > 1 {
		t.Errorf("compat schedule+dispatch = %.1f allocs/op, want <= 1 (caller closure only)", compat)
	}
	_ = sink
}

// TestPipeTransferAllocGate: pipe completions ride the typed path, so a
// steady-state transfer with a pre-existing done callback is
// allocation-free.
func TestPipeTransferAllocGate(t *testing.T) {
	if !allocGatesEnabled() {
		t.Skip("allocation gates run on the default build only")
	}
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 100)
	done := func() {}
	for i := 0; i < 64; i++ {
		p.TransferCall(4096, CallFunc, done, 0)
	}
	e.Run()
	n := testing.AllocsPerRun(200, func() {
		p.TransferCall(4096, CallFunc, done, 0)
		e.Run()
	})
	if n != 0 {
		t.Errorf("pipe transfer = %.1f allocs/op, want 0", n)
	}
}
