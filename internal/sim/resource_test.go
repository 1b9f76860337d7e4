package sim

import (
	"math"
	"testing"
)

// TestPipeTransferTimeLarge is the overflow regression: n*Second
// overflows int64 for any transfer above ≈9.2 GB, and the pre-fix
// arithmetic silently clamped the garbage to 1 ns of occupancy.
func TestPipeTransferTimeLarge(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 3_200_000_000, 0) // 3.2 GB/s media
	n := int64(64) << 30              // 64 GiB, a striped-array-sized transfer
	want := int64(21474836480)        // 64 GiB / 3.2 GB/s = 21.47 s exactly
	if got := p.TransferTime(n); got != want {
		t.Fatalf("TransferTime(64 GiB) = %d, want %d", got, want)
	}
}

// TestPipeTransferTimeOverflowBoundary pins both sides of the old
// overflow point: n*Second overflows int64 starting at n = 9223372037.
func TestPipeTransferTimeOverflowBoundary(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 0) // 1 byte per ns: TransferTime(n) == n
	for _, n := range []int64{9223372036, 9223372037, 20_000_000_000} {
		if got := p.TransferTime(n); got != n {
			t.Fatalf("TransferTime(%d) = %d, want %d", n, got, n)
		}
	}
}

func TestPipeTransferTimeResultOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TransferTime did not panic on a quotient beyond int64")
		}
	}()
	e := NewEngine()
	p := NewPipe(e, 1, 0) // 1 B/s: any sizeable n overflows the quotient
	p.TransferTime(math.MaxInt64)
}

// TestPipeTransferLimitedLarge drives a large limited transfer through
// the engine: completion must land at the exact occupancy, not at the
// pre-fix wrapped value.
func TestPipeTransferLimitedLarge(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 8_000_000_000, 5)
	n := int64(10) << 30 // 10 GiB
	var doneAt Time
	p.TransferLimitedCall(n, 2_000_000_000, CallFunc, func() { doneAt = e.Now() }, 0)
	e.Run()
	want := mulDiv(n, Second, 2_000_000_000) + 5
	if doneAt != want {
		t.Fatalf("limited transfer completed at %d, want %d", doneAt, want)
	}
	if b := p.BusyTime(); b != want-5 {
		t.Fatalf("BusyTime = %d, want %d", b, want-5)
	}
}

func TestMulDivExact(t *testing.T) {
	cases := []struct{ n, mul, div, want int64 }{
		{1, Second, 1_000_000_000, 1},
		{3, 10, 4, 7},                      // truncates toward zero
		{1 << 40, Second, 1 << 40, Second}, // 128-bit intermediate
		{math.MaxInt64, 2, 4, math.MaxInt64 / 2},
	}
	for _, c := range cases {
		if got := mulDiv(c.n, c.mul, c.div); got != c.want {
			t.Errorf("mulDiv(%d,%d,%d) = %d, want %d", c.n, c.mul, c.div, got, c.want)
		}
	}
}
