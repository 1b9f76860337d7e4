package main

// In-process microbenchmarks and the benchmark regression gate. The
// microbenchmarks mirror the repo's headline `go test -bench` set
// (BenchmarkSingleRun, BenchmarkPerAccessHit, BenchmarkAccessBatch,
// BenchmarkMissPath, BenchmarkEvictStorm) so a committed
// BENCH_suite.json records the perf trajectory the CI gate compares
// against without needing the test binary. The hit- and miss-path
// benches additionally carry a hard 0 allocs/op gate (zeroAllocMicro):
// -microbench itself fails when the steady-state per-access path —
// scalar, batched, missing, or evicting — allocates.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
)

// benchMicro is one in-process microbenchmark result attached to the
// report under "microbench" (omitted entirely when -microbench is off,
// so default report bytes are unchanged).
type benchMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// zeroAllocMicro names the microbenchmarks whose steady state must be
// allocation-free: the batched hit path (per access and per call), the
// miss pipeline and the eviction cascade. -microbench exits 1 when any
// of them reports a nonzero allocs/op, and -comparebench re-checks the
// committed entries so the gate holds even on runs that skip
// -microbench locally.
var zeroAllocMicro = map[string]bool{
	"PerAccessHit": true,
	"AccessBatch":  true,
	"MissPath":     true,
	"EvictStorm":   true,
}

// noopDone is the completion the microbenchmarks pass: they time the
// manager, not a warp.
func noopDone(any, int64) {}

// warmMissMicro builds the miss-path steady state: a 512-page footprint
// over 64 Tier-1 + 128 Tier-2 pages, so a cyclic scan misses on every
// access and each miss cascades an eviction. One warm lap grows every
// pool to capacity; after it the whole miss pipeline must run
// allocation-free (mirrors bench_test.go's warmMissTorture).
func warmMissMicro(eng *sim.Engine, policy core.PolicyKind) *core.Runtime {
	cfg := core.DefaultConfig()
	cfg.Policy = policy
	cfg.Tier1Pages = 64
	cfg.Tier2Pages = 128
	cfg.FootprintPages = 512
	rt := core.NewRuntime(eng, cfg)
	for p := 0; p < 512; p++ {
		rt.Access(gpu.Access{Page: tier.PageID(p), Write: p%3 == 0}, noopDone, nil, 0)
	}
	eng.Run()
	return rt
}

// warmResidentMicro builds the steady state the hit benches replay: a
// BaM runtime with the whole 128-page footprint resident and quiescent,
// plus a 512-access hitting batch over it.
func warmResidentMicro(eng *sim.Engine) (*core.Runtime, []gpu.Access) {
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyBaM
	cfg.Tier1Pages = 256
	cfg.FootprintPages = 128
	rt := core.NewRuntime(eng, cfg)
	for p := 0; p < 128; p++ {
		rt.Access(gpu.Access{Page: tier.PageID(p)}, noopDone, nil, 0)
	}
	eng.Run()
	batch := make([]gpu.Access, 512)
	for i := range batch {
		batch[i] = gpu.Access{Page: tier.PageID(i % 128)}
	}
	return rt, batch
}

// runMicrobench runs the headline microbenchmarks: one complete
// Figure 8-scale simulation (engine, runtime, GPU, devices; workload
// generation excluded), the steady-state Tier-1 hit path per access and
// per batch call, the all-miss pipeline and the dirty eviction storm.
func runMicrobench() []benchMicro {
	scale := workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2}
	trace := workload.NewMultiVectorAdd(scale).Trace()
	single := testing.Benchmark(func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Policy = core.PolicyReuse
		cfg.Tier1Pages = scale.Tier1Pages
		cfg.Tier2Pages = scale.Tier2Pages
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			rt := core.NewRuntime(eng, cfg)
			g := gpu.New(eng, gpu.DefaultConfig(), &gpu.SliceStream{Trace: trace}, rt)
			g.Launch()
			eng.Run()
		}
	})
	// Per-access cost on the batched hit path — the way hitting warps
	// now stream runs through AccessBatch; ns/op is per access.
	hit := testing.Benchmark(func(b *testing.B) {
		rt, batch := warmResidentMicro(sim.NewEngine())
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := rt.AccessBatch(batch, len(batch))
			if n != len(batch) {
				b.Fatalf("batch broke after %d of %d resident accesses", n, len(batch))
			}
			done += n
		}
	})
	// Per-call cost of one full 512-access batch.
	accessBatch := testing.Benchmark(func(b *testing.B) {
		rt, batch := warmResidentMicro(sim.NewEngine())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := rt.AccessBatch(batch, len(batch)); n != len(batch) {
				b.Fatalf("batch broke after %d of %d resident accesses", n, len(batch))
			}
		}
	})
	// Steady-state miss pipeline: every access misses, fetches from
	// Tier-2 or the SSD, and evicts. The gate is 0 allocs/op.
	missPath := testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		rt := warmMissMicro(eng, core.PolicyReuse)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Access(gpu.Access{Page: tier.PageID(i % 512)}, noopDone, nil, 0)
			eng.Run()
		}
	})
	// Worst-case dirty eviction cascade: a 256-access write-miss storm
	// per op, each miss spilling dirty victims down the tiers.
	evictStorm := testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		rt := warmMissMicro(eng, core.PolicyTierOrder)
		const storm = 256
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < storm; j++ {
				rt.Access(gpu.Access{Page: tier.PageID((i*storm + j) % 512), Write: true}, noopDone, nil, 0)
			}
			eng.Run()
		}
	})
	toMicro := func(name string, r testing.BenchmarkResult) benchMicro {
		return benchMicro{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	return []benchMicro{
		toMicro("SingleRun", single),
		toMicro("PerAccessHit", hit),
		toMicro("AccessBatch", accessBatch),
		toMicro("MissPath", missPath),
		toMicro("EvictStorm", evictStorm),
	}
}

// microGate enforces the 0 allocs/op contract on the zeroAllocMicro
// benches of a freshly measured set.
func microGate(micro []benchMicro) []error {
	var errs []error
	for _, m := range micro {
		if zeroAllocMicro[m.Name] && m.AllocsPerOp != 0 {
			errs = append(errs, fmt.Errorf(
				"%s: steady-state access path allocated: %d allocs/op (%d B/op), want 0",
				m.Name, m.AllocsPerOp, m.BytesPerOp))
		}
	}
	return errs
}

// Regression-gate tolerances (-comparebench). Wall clock is noisy across
// runners, so an experiment only fails at >1.25x the baseline plus a
// 100ms absolute floor for sub-second phases. Allocation counts are
// deterministic modulo map growth and slice doubling, so the band is
// tight: +1% plus a 10k-object floor.
const (
	compareWallRatio   = 1.25
	compareWallSlackMS = 100
	compareMallocRatio = 1.01
	compareMallocSlack = 10_000
	// Microbenchmark gate: allocs/op is deterministic and must never
	// exceed the baseline (so a 0 allocs/op entry stays 0 forever);
	// ns/op gets a wide 2x band because single-digit-nanosecond benches
	// swing hard across shared CI runners.
	compareMicroNsRatio = 2.0
)

// compareBench gates the current report against a committed baseline,
// returning one error per regressed experiment.
func compareBench(baselinePath string, cur benchReport) []error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return []error{err}
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return []error{fmt.Errorf("%s: %v", baselinePath, err)}
	}
	baseline := make(map[string]benchExperiment, len(base.Experiments))
	for _, e := range base.Experiments {
		baseline[e.Name] = e
	}
	var errs []error
	for _, e := range cur.Experiments {
		b, ok := baseline[e.Name]
		if !ok {
			continue // new experiment: nothing to regress against
		}
		if maxWall := b.WallMS*compareWallRatio + compareWallSlackMS; e.WallMS > maxWall {
			errs = append(errs, fmt.Errorf(
				"%s: wall clock regressed: %.1fms vs baseline %.1fms (limit %.1fms)",
				e.Name, e.WallMS, b.WallMS, maxWall))
		}
		if maxMallocs := float64(b.Mallocs)*compareMallocRatio + compareMallocSlack; float64(e.Mallocs) > maxMallocs {
			errs = append(errs, fmt.Errorf(
				"%s: allocation count regressed: %d objects vs baseline %d (limit %.0f)",
				e.Name, e.Mallocs, b.Mallocs, maxMallocs))
		}
	}
	// Microbenchmark entries gate only when this run measured them
	// (-microbench); a run without them compares experiments alone.
	baseMicro := make(map[string]benchMicro, len(base.Micro))
	for _, m := range base.Micro {
		baseMicro[m.Name] = m
	}
	for _, m := range cur.Micro {
		b, ok := baseMicro[m.Name]
		if !ok {
			continue // new microbenchmark: nothing to regress against
		}
		if m.AllocsPerOp > b.AllocsPerOp {
			errs = append(errs, fmt.Errorf(
				"%s: allocs/op regressed: %d vs baseline %d",
				m.Name, m.AllocsPerOp, b.AllocsPerOp))
		}
		if maxNs := b.NsPerOp * compareMicroNsRatio; m.NsPerOp > maxNs {
			errs = append(errs, fmt.Errorf(
				"%s: ns/op regressed: %.2f vs baseline %.2f (limit %.2f)",
				m.Name, m.NsPerOp, b.NsPerOp, maxNs))
		}
	}
	return errs
}
