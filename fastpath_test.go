package gmt

import (
	"testing"

	"github.com/gmtsim/gmt/internal/baseline"
	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
)

// queued is the reference path of the scheduler determinism contract
// (HACKING.md): a hit runs the completion synchronously and reports
// false, so the warp resumes through a queued continuation event
// instead of streaming inline. Driving the same workload inline and
// through queued is the full-stack form of the fast-path equivalence
// argument.
type queued struct{ mm gpu.MemoryManager }

func (q queued) Access(a gpu.Access, call sim.EventFunc, ctx any, arg int64) bool {
	if q.mm.Access(a, call, ctx, arg) {
		call(ctx, arg)
	}
	return false
}

// fastPathTrace mixes Tier-1 hits on a hot set, capacity misses from a
// scan over a footprint twice the Tier-1 size, writes, and kernel-wide
// barriers.
func fastPathTrace(n int) []gpu.Access {
	tr := make([]gpu.Access, 0, n+n/200)
	for i := 0; i < n; i++ {
		p := tier.PageID(i * 7919 % 512)
		if i%3 != 0 {
			p = tier.PageID(i % 64)
		}
		tr = append(tr, gpu.Access{Page: p, Write: i%13 == 0})
		if (i+1)%200 == 0 {
			tr = append(tr, gpu.Barrier)
		}
	}
	return tr
}

// TestFastPathMatchesQueuedPath runs every policy's full runtime stack,
// and HMM with and without its block prefetcher and forced hit rate,
// two ways — inline hit streaks and queued; wall time and the entire
// metrics snapshot must be identical.
func TestFastPathMatchesQueuedPath(t *testing.T) {
	type manager interface {
		gpu.MemoryManager
		Snapshot() stats.Run
	}
	gmt := func(pol core.PolicyKind) func(*sim.Engine) manager {
		return func(eng *sim.Engine) manager {
			cfg := core.DefaultConfig()
			cfg.Policy = pol
			cfg.Tier1Pages = 256
			cfg.FootprintPages = 512
			return core.NewRuntime(eng, cfg)
		}
	}
	hmm := func(block int, rate float64) func(*sim.Engine) manager {
		return func(eng *sim.Engine) manager {
			cfg := baseline.DefaultHMMConfig()
			cfg.Tier1Pages = 256
			cfg.FootprintPages = 512
			cfg.PrefetchBlock, cfg.ForcedHitRate = block, rate
			return baseline.NewHMM(eng, cfg)
		}
	}
	for _, c := range []struct {
		name  string
		build func(*sim.Engine) manager
	}{
		{"BaM", gmt(core.PolicyBaM)},
		{"TierOrder", gmt(core.PolicyTierOrder)},
		{"Reuse", gmt(core.PolicyReuse)},
		{"HMM", hmm(0, -1)},
		{"HMM/prefetch8", hmm(8, -1)},
		{"HMM/forced0.5", hmm(0, 0.5)},
	} {
		run := func(mode string) (sim.Time, stats.Run) {
			eng := sim.NewEngine()
			m := c.build(eng)
			var mm gpu.MemoryManager = m
			if mode == "queued" {
				mm = queued{m}
			}
			gcfg := gpu.DefaultConfig()
			gcfg.Warps = 32
			g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: fastPathTrace(4000)}, mm)
			g.Launch()
			eng.Run()
			if !g.Done() {
				t.Fatalf("%s/%s: kernel did not finish", c.name, mode)
			}
			return eng.Now(), m.Snapshot()
		}
		inow, im := run("inline")
		if im.Tier1Hits == 0 || im.Tier1Hits == im.Accesses {
			t.Fatalf("%s: trace lacks hits or misses: %+v", c.name, im)
		}
		qnow, qm := run("queued")
		if inow != qnow {
			t.Errorf("%s: wall time: inline %d, queued %d", c.name, inow, qnow)
		}
		if im != qm {
			t.Errorf("%s: metrics diverged:\ninline: %+v\nqueued: %+v", c.name, im, qm)
		}
	}
}
