package nvme

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gmtsim/gmt/internal/sim"
)

const page = 64 * 1024

func TestUnloadedReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, DefaultConfig())
	var got sim.Time
	// The command is granted its queue slot at 0, so it completes at
	// its end-to-end latency.
	d.ReadCall(0, page, sim.CallFunc, func() { got = eng.Now() }, 0)
	eng.Run()
	// Paper §3.4: retrieving a page from SSD costs ≈130 µs.
	if got < 110*sim.Microsecond || got > 150*sim.Microsecond {
		t.Fatalf("unloaded 64K read latency = %dµs, want ≈130µs", got/sim.Microsecond)
	}
}

func TestSaturatedReadBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, DefaultConfig())
	const n = 2000
	for i := 0; i < n; i++ {
		d.ReadCall(int64(i), page, sim.CallFunc, nil, 0)
	}
	eng.Run()
	elapsed := eng.Now()
	bps := int64(n) * page * sim.Second / elapsed
	// Gen3 x4 bound: ≈3.2 GB/s.
	if bps < 2_800_000_000 || bps > 3_400_000_000 {
		t.Fatalf("saturated read bandwidth = %.2f GB/s, want ≈3.2", float64(bps)/1e9)
	}
}

func TestQueueDepthBoundsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Queues = 1
	cfg.QueueDepth = 4
	d := New(eng, cfg)
	for i := 0; i < 100; i++ {
		d.ReadCall(int64(i), page, sim.CallFunc, nil, 0)
	}
	if got := d.queues[0].InUse(); got != 4 {
		t.Fatalf("in-service commands = %d, want queue depth 4", got)
	}
	eng.Run()
	if d.Stats().Completions != 100 {
		t.Fatalf("completions = %d, want 100", d.Stats().Completions)
	}
}

func TestMultiQueueRaisesInFlight(t *testing.T) {
	// With depth 4 per queue, 4 queues admit 16 commands at once.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Queues = 4
	cfg.QueueDepth = 4
	d := New(eng, cfg)
	for i := 0; i < 100; i++ {
		d.ReadCall(int64(i), page, sim.CallFunc, nil, 0)
	}
	inUse := 0
	for _, q := range d.queues {
		inUse += q.InUse()
	}
	if inUse != 16 {
		t.Fatalf("in-service = %d, want 16 across 4 queues", inUse)
	}
	if d.QueuePairs() != 4 {
		t.Fatalf("QueuePairs = %d", d.QueuePairs())
	}
	eng.Run()
	if d.Stats().Completions != 100 {
		t.Fatalf("completions = %d", d.Stats().Completions)
	}
}

func TestMultiQueueHelpsUnderShallowDepth(t *testing.T) {
	// A depth-2 single queue serializes submissions; 8 such queues
	// restore the parallelism BaM needs.
	run := func(queues int) sim.Time {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Queues = queues
		cfg.QueueDepth = 2
		d := New(eng, cfg)
		for i := 0; i < 64; i++ {
			d.ReadCall(int64(i), page, sim.CallFunc, nil, 0)
		}
		eng.Run()
		return eng.Now()
	}
	one, eight := run(1), run(8)
	if eight >= one {
		t.Fatalf("8 queues (%dµs) not faster than 1 (%dµs)",
			eight/sim.Microsecond, one/sim.Microsecond)
	}
}

func TestSaturatedWriteBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, DefaultConfig())
	const n = 1000
	for i := 0; i < n; i++ {
		d.WriteCall(int64(i), page, sim.CallFunc, nil, 0)
	}
	eng.Run()
	bps := int64(n) * page * sim.Second / eng.Now()
	// Media write rate bound: ≈3.2 GB/s, never above it.
	if bps < 2_800_000_000 || bps > 3_300_000_000 {
		t.Fatalf("saturated write bandwidth = %.2f GB/s, want ≈3.2", float64(bps)/1e9)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, DefaultConfig())
	d.ReadCall(0, page, sim.CallFunc, nil, 0)
	d.ReadCall(1, page, sim.CallFunc, nil, 0)
	d.WriteCall(2, 2*page, sim.CallFunc, nil, 0)
	eng.Run()
	s := d.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("reads=%d writes=%d, want 2,1", s.Reads, s.Writes)
	}
	if s.ReadBytes != 2*page || s.WriteBytes != 2*page {
		t.Fatalf("readBytes=%d writeBytes=%d", s.ReadBytes, s.WriteBytes)
	}
	if s.MeanLatency <= 0 {
		t.Fatal("mean latency not recorded")
	}
}

func TestParallelismHidesLatency(t *testing.T) {
	// 8 concurrent reads on 8 channels should take far less than 8x one
	// read — this is the overlap BaM exploits with many warps.
	one := func(n int) sim.Time {
		eng := sim.NewEngine()
		d := New(eng, DefaultConfig())
		for i := 0; i < n; i++ {
			d.ReadCall(int64(i), page, sim.CallFunc, nil, 0)
		}
		eng.Run()
		return eng.Now()
	}
	t1, t8 := one(1), one(8)
	// Serial issue would cost 8*t1; with 8 channels the fixed media
	// latency overlaps and only the media byte rate serializes, so the
	// batch should land well under 4*t1 (measured ≈2.1*t1).
	if t8 > 4*t1 {
		t.Fatalf("8 parallel reads took %dµs vs %dµs for one; latency not overlapped",
			t8/sim.Microsecond, t1/sim.Microsecond)
	}
}

func TestZeroByteCommandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-byte command did not panic")
		}
	}()
	New(sim.NewEngine(), DefaultConfig()).ReadCall(0, 0, sim.CallFunc, nil, 0)
}

// Property: every submitted command completes exactly once, in any
// interleaving of reads and writes.
func TestNoCommandLost(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Queues = 1
		cfg.QueueDepth = 8
		d := New(eng, cfg)
		total := int(n) + 1
		completed := 0
		for i := 0; i < total; i++ {
			op := OpRead
			if rng.Intn(2) == 1 {
				op = OpWrite
			}
			at := sim.Time(rng.Intn(100_000))
			eng.AtCall(at, sim.CallFunc, func() {
				d.SubmitCall(Command{Op: op, LBA: int64(i), Bytes: page},
					sim.CallFunc, func() { completed++ }, 0)
			}, 0)
		}
		eng.Run()
		return completed == total && d.Stats().Completions == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOpcodeString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("opcode strings wrong")
	}
	if Opcode(9).String() != "opcode(9)" {
		t.Fatalf("unknown opcode string = %q", Opcode(9).String())
	}
}
