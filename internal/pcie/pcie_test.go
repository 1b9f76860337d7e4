package pcie

import (
	"testing"

	"github.com/gmtsim/gmt/internal/sim"
)

func TestLinkBandwidthScalesWithLanes(t *testing.T) {
	eng := sim.NewEngine()
	x4 := NewLink(eng, 4)
	x16 := NewLink(eng, 16)
	if x16.BytesPerSecond() != 4*x4.BytesPerSecond() {
		t.Fatalf("x16 bw %d != 4 * x4 bw %d", x16.BytesPerSecond(), x4.BytesPerSecond())
	}
	if x16.BytesPerSecond() != 12_800_000_000 {
		t.Fatalf("Gen3 x16 = %d B/s, want 12.8 GB/s effective", x16.BytesPerSecond())
	}
}

func TestLinkDirectionsIndependent(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLinkRate(eng, 1, 1_000_000_000, 0)
	var upDone, downDone sim.Time
	l.Up.TransferCall(1000, sim.CallFunc, func() { upDone = eng.Now() }, 0)
	l.Down.TransferCall(1000, sim.CallFunc, func() { downDone = eng.Now() }, 0)
	eng.Run()
	// Full duplex: both complete at 1000ns, not serialized.
	if upDone != 1000 || downDone != 1000 {
		t.Fatalf("up=%d down=%d, want both 1000 (full duplex)", upDone, downDone)
	}
}

func TestLink64KPageTime(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 16)
	var done sim.Time
	l.Down.TransferCall(64*1024, sim.CallFunc, func() { done = eng.Now() }, 0)
	eng.Run()
	// 64 KiB over 12.8 GB/s ≈ 5.1 µs + ~0.9 µs latency ≈ 6 µs.
	if done < 5*sim.Microsecond || done > 7*sim.Microsecond {
		t.Fatalf("64K page over Gen3 x16 took %dns, want ≈6µs", done)
	}
}

func TestTotalBytes(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 4)
	l.Up.TransferCall(100, sim.CallFunc, nil, 0)
	l.Down.TransferCall(200, sim.CallFunc, nil, 0)
	eng.Run()
	if l.TotalBytes() != 300 {
		t.Fatalf("TotalBytes = %d, want 300", l.TotalBytes())
	}
}

func TestLanesAndGen4(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 8)
	if l.Lanes() != 8 {
		t.Fatalf("Lanes = %d", l.Lanes())
	}
	g4 := NewLinkRate(eng, 8, Gen4LaneBytesPerS, DefaultLatency)
	if g4.BytesPerSecond() != 2*l.BytesPerSecond() {
		t.Fatal("Gen4 lane rate should double Gen3")
	}
}

func TestBadLanesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("lanes=0 did not panic")
		}
	}()
	NewLink(sim.NewEngine(), 0)
}
