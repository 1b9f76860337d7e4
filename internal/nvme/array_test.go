package nvme

import (
	"testing"

	"github.com/gmtsim/gmt/internal/sim"
)

func TestArrayStripesEvenly(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(eng, DefaultConfig(), 4)
	for i := int64(0); i < 400; i++ {
		a.ReadCall(i, page, sim.CallFunc, nil, 0)
	}
	eng.Run()
	for i := 0; i < 4; i++ {
		if got := a.Disk(i).Stats().Reads; got != 100 {
			t.Fatalf("drive %d got %d reads, want 100", i, got)
		}
	}
	if a.Stats().Reads != 400 {
		t.Fatalf("aggregate reads = %d", a.Stats().Reads)
	}
}

func TestArrayBandwidthScales(t *testing.T) {
	run := func(drives int) sim.Time {
		eng := sim.NewEngine()
		a := NewArray(eng, DefaultConfig(), drives)
		for i := int64(0); i < 2000; i++ {
			a.ReadCall(i, page, sim.CallFunc, nil, 0)
		}
		eng.Run()
		return eng.Now()
	}
	one, four := run(1), run(4)
	// BaM's scaling claim: aggregate bandwidth grows near-linearly.
	speedup := float64(one) / float64(four)
	if speedup < 3.0 {
		t.Fatalf("4 drives only %.2fx faster than 1", speedup)
	}
}

func TestArrayAggregateStats(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(eng, DefaultConfig(), 2)
	a.ReadCall(0, page, sim.CallFunc, nil, 0)
	a.WriteCall(1, page, sim.CallFunc, nil, 0)
	eng.Run()
	s := a.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Completions != 2 {
		t.Fatalf("aggregate stats = %+v", s)
	}
	if s.MeanLatency <= 0 {
		t.Fatal("mean latency not aggregated")
	}
	if a.Drives() != 2 {
		t.Fatalf("Drives = %d", a.Drives())
	}
}

func TestArrayValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty array did not panic")
		}
	}()
	NewArray(sim.NewEngine(), DefaultConfig(), 0)
}

func TestArrayNegativeLBA(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(eng, DefaultConfig(), 3)
	done := false
	a.ReadCall(-7, page, sim.CallFunc, func() { done = true }, 0)
	eng.Run()
	if !done {
		t.Fatal("negative LBA read lost")
	}
}
