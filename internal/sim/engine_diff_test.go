package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap are a minimal (time, seq) binary heap — the queue
// discipline the engine used before the timing wheel. The differential
// tests drive both structures with identical schedules and assert the
// wheel reproduces the heap's dispatch sequence exactly, which is the
// determinism contract the rewrite must preserve (HACKING.md,
// "Scheduler determinism contract").
type refEvent struct {
	at  Time
	seq int64
	id  int64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)    { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any      { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h refHeap) peek() refEvent { return h[0] }

// simLatencies are the simulator's latency constants above the 256 ns
// bottom window of the wheel: PCIe link latency, NVMe command overhead,
// DMA launch, SSD write latency, host pinning overhead, SSD read
// latency.
var simLatencies = []Time{
	900, 2 * Microsecond, 12 * Microsecond, 30 * Microsecond, 56 * Microsecond, 85 * Microsecond,
}

// diffRun replays one randomized schedule derived from data through both
// queues and reports the first divergence. The op stream mixes near and
// far deltas (level-0 hits, upper wheel levels, the overflow ladder),
// equal-time bursts, RunUntil boundaries, and reschedule-from-callback.
func diffRun(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	var seed int64
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))

	e := NewEngine()
	ref := &refHeap{}
	var refSeq, nextID int64
	var got []int64 // event IDs in engine dispatch order

	// delta picks a scheduling offset biased toward the simulator's real
	// mix (small constants) but regularly crossing wheel levels and the
	// 2^32 overflow horizon, and landing equal-time bursts. Runs whose
	// first byte is 0xE0–0xEF draw every offset from simLatencies, the
	// traffic the engine sees: almost all of it starts above level 0,
	// where lone records dispatch without cascading.
	simOnly := data[0]&0xF0 == 0xE0
	delta := func() Time {
		k := rng.Intn(9)
		if simOnly {
			k = 8
		}
		switch k {
		case 0:
			return 0 // equal-time burst with whatever fired now
		case 1, 2, 3:
			return Time(rng.Intn(256)) // level 0
		case 4:
			return Time(rng.Intn(1 << 16)) // level 1–2
		case 5:
			return Time(rng.Intn(1 << 28)) // level 3
		case 6:
			return 1<<32 + Time(rng.Intn(1<<33)) // overflow ladder
		case 7:
			return Time(rng.Intn(64)) * 200 // ComputePerAccess-like grid
		default:
			return simLatencies[rng.Intn(len(simLatencies))]
		}
	}
	schedule := func(chain int) {
		id := nextID
		nextID++
		at := e.Now() + delta()
		refSeq++
		heap.Push(ref, refEvent{at: at, seq: refSeq, id: id})
		var fire EventFunc
		fire = func(_ any, myID int64) {
			got = append(got, myID)
			if chain > 0 && rng.Intn(3) == 0 {
				chain--
				child := nextID
				nextID++
				cat := e.Now() + delta()
				refSeq++
				heap.Push(ref, refEvent{at: cat, seq: refSeq, id: child})
				e.AtCall(cat, fire, nil, child)
			}
		}
		e.AtCall(at, fire, nil, id)
	}

	nops := int(data[0])%48 + 8
	for op := 0; op < nops; op++ {
		switch rng.Intn(4) {
		case 0: // burst of simultaneous root events
			n := rng.Intn(6) + 1
			for i := 0; i < n; i++ {
				schedule(2)
			}
		case 1:
			schedule(4)
		case 2: // drain up to a boundary that both sides honor
			if e.Pending() > 0 {
				limit := e.Now() + delta()
				e.RunUntil(limit)
				for ref.Len() > 0 && ref.peek().at <= limit {
					ev := heap.Pop(ref).(refEvent)
					want := got[0]
					got = got[1:]
					if ev.id != want {
						t.Fatalf("RunUntil(%d): wheel dispatched %d, heap %d", limit, want, ev.id)
					}
				}
			}
		case 3: // single-step and compare against the reference head
			if e.Pending() > 0 {
				at, ok := e.Peek()
				if !ok || at != ref.peek().at {
					t.Fatalf("Peek = %d,%v; heap min %d", at, ok, ref.peek().at)
				}
				e.step()
				ev := heap.Pop(ref).(refEvent)
				want := got[0]
				got = got[1:]
				if ev.id != want || e.Now() != ev.at {
					t.Fatalf("step: wheel (%d @ %d), heap (%d @ %d)", want, e.Now(), ev.id, ev.at)
				}
			}
		}
		if e.Pending() != ref.Len() {
			t.Fatalf("Pending = %d, heap holds %d", e.Pending(), ref.Len())
		}
	}
	e.Run()
	for ref.Len() > 0 {
		ev := heap.Pop(ref).(refEvent)
		if len(got) == 0 {
			t.Fatalf("wheel dispatched %d events fewer than the heap", ref.Len()+1)
		}
		want := got[0]
		got = got[1:]
		if ev.id != want {
			t.Fatalf("drain: wheel dispatched %d, heap %d", want, ev.id)
		}
	}
	if len(got) != 0 {
		t.Fatalf("wheel dispatched %d extra events", len(got))
	}
}

// TestEngineDifferential is the deterministic slice of the fuzz
// property: a fixed corpus of seeds, always run, so the equivalence is
// checked on every `go test` (and under -tags gmtinvariants in CI), not
// only during fuzzing.
func TestEngineDifferential(t *testing.T) {
	for seed := byte(0); seed < 64; seed++ {
		diffRun(t, []byte{seed, byte(seed * 7), byte(255 - seed)})
	}
	for seed := byte(0); seed < 16; seed++ {
		diffRun(t, []byte{0xE0 | seed, byte(seed * 11), 3})
	}
}

// FuzzEngineDifferential drives the timing wheel and the reference heap
// with identical randomized schedules and requires identical dispatch
// sequences. CI runs a short -fuzz pass; the seed corpus below covers
// each delta regime (level-0, upper levels, overflow, equal-time
// bursts, the simulator's own latencies).
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0xE5, 9, 200}) // simLatencies only
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{7, 7, 7, 7})
	f.Add([]byte{42, 0, 255, 13, 101})
	f.Add([]byte{255, 128, 64, 32, 16, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		diffRun(t, data)
	})
}
