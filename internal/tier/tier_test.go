package tier

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockSecondChance(t *testing.T) {
	c := NewClock(3)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	// All ref bits set: first scan clears 1,2,3 then wraps and evicts 1.
	if v := c.Victim(); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
	// Touch 1: it gets a second chance; next victim is 2.
	c.Touch(1)
	if v := c.Victim(); v != 2 {
		t.Fatalf("victim after touch(1) = %d, want 2", v)
	}
}

func TestClockApproximatesLRU(t *testing.T) {
	c := NewClock(4)
	for p := PageID(1); p <= 4; p++ {
		c.Insert(p)
	}
	// First sweep clears all insertion ref bits and lands on 1.
	if v := c.Victim(); v != 1 {
		t.Fatalf("first victim = %d, want 1", v)
	}
	// Re-reference everything except 3: the next sweep passes the
	// touched pages and evicts the one page not recently used.
	c.Touch(1)
	c.Touch(2)
	c.Touch(4)
	if v := c.Victim(); v != 3 {
		t.Fatalf("victim = %d, want unreferenced page 3", v)
	}
}

func TestClockVictimDoesNotRemove(t *testing.T) {
	c := NewClock(2)
	c.Insert(10)
	c.Insert(20)
	v := c.Victim()
	if !c.Contains(v) {
		t.Fatal("Victim removed the page")
	}
	if !c.Remove(v) {
		t.Fatal("Remove(victim) failed")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestClockRejectAdvances(t *testing.T) {
	c := NewClock(3)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	v1 := c.Victim()
	c.Reject(v1)
	v2 := c.Victim()
	if v2 == v1 {
		t.Fatalf("rejected page %d chosen again immediately", v1)
	}
	// After rejecting every page once, the clock must still terminate
	// and produce a victim (second sweep clears the re-set bits).
	c.Reject(v2)
	v3 := c.Victim()
	c.Reject(v3)
	if v := c.Victim(); !c.Contains(v) {
		t.Fatal("clock failed to terminate after universal rejection")
	}
}

func TestClockFreeSlotReuse(t *testing.T) {
	c := NewClock(2)
	c.Insert(1)
	c.Insert(2)
	if !c.Full() {
		t.Fatal("clock should be full")
	}
	c.Remove(1)
	c.Insert(3)
	if !c.Contains(3) || c.Contains(1) {
		t.Fatal("slot reuse broken")
	}
}

func TestClockInsertFullPanics(t *testing.T) {
	c := NewClock(1)
	c.Insert(1)
	defer func() {
		if recover() == nil {
			t.Error("insert into full clock did not panic")
		}
	}()
	c.Insert(2)
}

func TestClockDoubleInsertPanics(t *testing.T) {
	c := NewClock(2)
	c.Insert(1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert did not panic")
		}
	}()
	c.Insert(1)
}

func TestClockEmptyVictimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("victim from empty clock did not panic")
		}
	}()
	NewClock(1).Victim()
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO(3)
	f.Insert(1)
	f.Insert(2)
	f.Insert(3)
	if v := f.Victim(); v != 1 {
		t.Fatalf("victim = %d, want oldest (1)", v)
	}
	f.Remove(1)
	f.Insert(4)
	if v := f.Victim(); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
}

func TestFIFORemoveMiddle(t *testing.T) {
	f := NewFIFO(3)
	f.Insert(1)
	f.Insert(2)
	f.Insert(3)
	if !f.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	f.Remove(1)
	// 2's tombstone must be skipped.
	if v := f.Victim(); v != 3 {
		t.Fatalf("victim = %d, want 3", v)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d, want 1", f.Len())
	}
}

func TestFIFORemoveAbsent(t *testing.T) {
	f := NewFIFO(2)
	if f.Remove(99) {
		t.Fatal("Remove of absent page reported true")
	}
}

func TestFIFOCompaction(t *testing.T) {
	f := NewFIFO(100)
	// Churn: many insert/remove cycles must not grow the queue without
	// bound.
	for i := 0; i < 10_000; i++ {
		f.Insert(PageID(i))
		f.Remove(PageID(i))
	}
	if len(f.queue) > 4*f.capacity+64 {
		t.Fatalf("queue grew to %d entries despite compaction", len(f.queue))
	}
}

// TestFIFOEvictionQueueBounded: under plain FIFO eviction — each insert
// into a full store evicts the head — the unconsumed queue stays near
// the capacity, so only the consumed prefix can grow. After 200,000
// inserts into a 1024-page store the queue's backing array must stay
// within 4× the capacity; without sliding the consumed prefix away it
// held every insert (length 200,000, capacity 219,136).
func TestFIFOEvictionQueueBounded(t *testing.T) {
	f := NewFIFO(1024)
	for i := 0; i < 200_000; i++ {
		if f.Full() {
			f.Remove(f.Victim())
		}
		f.Insert(PageID(i % 5000))
	}
	if c := cap(f.queue); c > 4*f.capacity {
		t.Fatalf("after 200000 inserts the queue has length %d and capacity %d, want capacity <= %d",
			len(f.queue), c, 4*f.capacity)
	}
}

func TestStoreInterfaceCompliance(t *testing.T) {
	for _, s := range []Store{NewClock(4), NewFIFO(4), NewLRUK(4), NewTwoQ(4)} {
		s.Insert(7)
		if !s.Contains(7) || s.Len() != 1 || s.Capacity() != 4 || s.Full() {
			t.Fatalf("%T basic accounting broken", s)
		}
		if v := s.Victim(); v != 7 {
			t.Fatalf("%T victim = %d, want 7", s, v)
		}
		s.Remove(7)
		if s.Contains(7) || s.Len() != 0 {
			t.Fatalf("%T removal broken", s)
		}
	}
}

func TestEachVisitsAllResidents(t *testing.T) {
	for _, s := range []Store{NewClock(8), NewFIFO(8), NewLRUK(8), NewTwoQ(8)} {
		want := map[PageID]bool{}
		for p := PageID(0); p < 5; p++ {
			s.Insert(p)
			want[p] = true
		}
		got := map[PageID]bool{}
		s.Each(func(p PageID) { got[p] = true })
		if len(got) != len(want) {
			t.Fatalf("%T: Each visited %d of %d", s, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("%T: Each missed %d", s, p)
			}
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"clock-zero": func() { NewClock(0) },
		"fifo-zero":  func() { NewFIFO(0) },
		"fifo-full":  func() { f := NewFIFO(1); f.Insert(1); f.Insert(2) },
		"fifo-dup":   func() { f := NewFIFO(2); f.Insert(1); f.Insert(1) },
		"fifo-empty": func() { NewFIFO(1).Victim() },
		"clock-rej":  func() { c := NewClock(2); c.Insert(1); c.Reject(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestClockRemoveAbsent(t *testing.T) {
	c := NewClock(2)
	if c.Remove(5) {
		t.Fatal("Remove of absent page reported true")
	}
}

// Property: under random insert/remove/victim churn, both stores keep
// Len() == tracked live set and never exceed capacity, and Victim always
// returns a live page.
func TestStoreChurnProperty(t *testing.T) {
	run := func(mk func() Store) func(seed int64) bool {
		return func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			s := mk()
			live := map[PageID]struct{}{}
			next := PageID(0)
			for op := 0; op < 2000; op++ {
				switch {
				case !s.Full() && (len(live) == 0 || rng.Intn(2) == 0):
					s.Insert(next)
					live[next] = struct{}{}
					next++
				default:
					v := s.Victim()
					if _, ok := live[v]; !ok {
						return false
					}
					s.Remove(v)
					delete(live, v)
				}
				if s.Len() != len(live) || s.Len() > s.Capacity() {
					return false
				}
			}
			return true
		}
	}
	for _, im := range storeImpls() {
		im := im
		if err := quick.Check(run(func() Store { return im.mk(32) }), &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s churn: %v", im.name, err)
		}
	}
}
