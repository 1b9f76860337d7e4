package exp

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/baseline"
	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
)

// minPrefix is the smallest eviction-free prefix worth splitting a run
// at; shorter warm-ups fall back to a single kernel. The bound is part
// of the determinism contract: whether a run splits depends only on
// (trace, Tier1Pages), never on worker count.
const minPrefix = 64

// dataSuite returns the suite whose workloads and traces s consumes:
// itself, or the parent it adopted datasets from.
func (s *Suite) dataSuite() *Suite {
	if s.data != nil {
		return s.data
	}
	return s
}

// dataKey identifies the trace a run of w consumes: the workload name
// plus the scale its generator derived from, so runs on genuinely
// different datasets (fig13's doubled suite vs the root, say) never
// share a key.
type dataKey struct {
	app   string
	scale workload.Scale
}

func (s *Suite) dataKey(w workload.Workload) dataKey {
	return dataKey{w.Name(), s.dataSuite().Scale}
}

// runKey identifies one simulation by its inputs: the trace, the GPU,
// and the simulator's config, which is a core run's canonical Params
// and split decision or an HMM run's config (zero for core runs). An
// oracle's future is always its own trace (simulate derives it), so the
// policy and the trace already record it.
type runKey struct {
	data  dataKey
	gpu   gpu.Config
	cfg   core.Params
	split bool
	hmm   baseline.HMMConfig
}

// key builds every run's memo key, for the drivers and the planner
// alike: a core run of w under cfg, split as simulate splits it, or,
// when hmm is non-nil, an HMM run under *hmm.
func (s *Suite) key(w workload.Workload, cfg core.Config, split bool, hmm *baseline.HMMConfig) runKey {
	k := runKey{data: s.dataKey(w), gpu: s.GPU}
	if hmm != nil {
		k.hmm = *hmm
		return k
	}
	if cfg.Future != nil {
		panic("exp: an oracle's future is its own trace")
	}
	k.cfg = core.Canonical(cfg).Params
	k.split = split && phasedEligible(cfg)
	return k
}

// adoptData pins sub's datasets to parent's: the sensitivity sweeps
// vary the machine, not the data (the paper holds datasets fixed when
// halving tiers for Figure 11's graph apps or sweeping Figure 12's
// Tier-2 ratio), so sub reuses the parent's workloads and trace memo
// outright.
func (sub *Suite) adoptData(parent *Suite) {
	d := parent.dataSuite()
	sub.apps = d.apps
	sub.data = d
}

// phasedEligible reports whether a run under cfg splits at its
// eviction-free prefix when its caller asks for a split: the three GMT
// policies the sweeps compare, without prefetch or history sampling.
// BaM never splits, so one BaM run serves every sub-suite that agrees
// on its canonical config. Which runs split shows in the output (a
// kernel boundary changes warp timing), so this rule is pinned by the
// quick goldens.
func phasedEligible(cfg core.Config) bool {
	switch cfg.Policy {
	case core.PolicyTierOrder, core.PolicyRandom, core.PolicyReuse:
	default:
		return false
	}
	return cfg.PrefetchDegree == 0 && cfg.HistorySample == 0
}

// evictionFreePrefix reports the longest K such that simulating
// trace[:K] cannot trigger a Tier-1 eviction: the distinct non-negative
// pages referenced stay within tier1 slots, so every miss finds a free
// slot and Tier-2 is never touched.
func evictionFreePrefix(trace []gpu.Access, tier1 int) int {
	if tier1 <= 0 {
		return 0
	}
	seen := make(map[tier.PageID]struct{}, tier1)
	for i, a := range trace {
		if a.Page < 0 {
			continue
		}
		if _, ok := seen[a.Page]; ok {
			continue
		}
		if len(seen) == tier1 {
			return i
		}
		seen[a.Page] = struct{}{}
	}
	return len(trace)
}

// runUnit is one recyclable {engine, runtime} pair. Every simulation
// draws a unit from the suite pool: a unit that finished a run is Reset
// — reusing its page-directory arena, tier arrays, event arena, and
// pipeline pools — instead of being rebuilt from scratch, which is
// where sweep-scale prewarms used to spend most of their allocation
// churn.
type runUnit struct {
	eng *sim.Engine
	rt  *core.Runtime
}

// acquireUnit pops a pooled unit reset to cfg, or builds a fresh one.
func (s *Suite) acquireUnit(cfg core.Config) *runUnit {
	s.unitMu.Lock()
	var u *runUnit
	if n := len(s.units); n > 0 {
		u = s.units[n-1]
		s.units[n-1] = nil
		s.units = s.units[:n-1]
	}
	s.unitMu.Unlock()
	if u == nil {
		eng := sim.NewEngine()
		return &runUnit{eng: eng, rt: core.NewRuntime(eng, cfg)}
	}
	u.rt.Reset(cfg)
	return u
}

// releaseUnit returns a unit whose run completed to the pool.
func (s *Suite) releaseUnit(u *runUnit) {
	s.unitMu.Lock()
	s.units = append(s.units, u)
	s.unitMu.Unlock()
}

// simulate runs w's trace under cfg on a pooled unit. The trace runs as
// one kernel or, when split is set (runKey's split decision), as two
// kernels on the same runtime split at the eviction-free prefix: the
// second kernel launches once the first has drained. A prefix shorter
// than minPrefix, or covering the whole trace, does not split. An
// oracle's future is the trace's, as core.OracleFuture derives it.
func (s *Suite) simulate(w workload.Workload, cfg core.Config, split bool) stats.Run {
	tr := s.Trace(w)
	if cfg.Policy == core.PolicyOracle {
		cfg.Future = core.OracleFuture(tr)
	}
	kernels := [][]gpu.Access{tr}
	if split {
		if k := evictionFreePrefix(tr, cfg.Tier1Pages); k >= minPrefix && k < len(tr) {
			kernels = [][]gpu.Access{tr[:k], tr[k:]}
		}
	}
	u := s.acquireUnit(cfg)
	var compute, stall sim.Time
	for _, kernel := range kernels {
		g := gpu.New(u.eng, s.GPU, &gpu.SliceStream{Trace: kernel}, u.rt)
		g.Launch()
		u.eng.Run()
		if !g.Done() {
			panic(fmt.Sprintf("exp: %s under %v did not finish", w.Name(), cfg.Policy))
		}
		compute += g.ComputeTime()
		stall += g.StallTime()
	}
	m := u.rt.Snapshot()
	m.App = w.Name()
	m.WallTime = u.eng.Now()
	m.WarpComputeNS = compute
	m.WarpStallNS = stall
	s.releaseUnit(u)
	return m
}

// runConfig simulates w under cfg, memoized by its run key; split asks
// for the phased split. A zero FootprintPages is filled from w inside
// the computation, so a memo hit never builds w's dataset.
func (s *Suite) runConfig(w workload.Workload, cfg core.Config, split bool) stats.Run {
	k := s.key(w, cfg, split, nil)
	return s.memoized(k, func() stats.Run {
		if cfg.FootprintPages == 0 {
			cfg.FootprintPages = int(w.Pages())
		}
		return s.simulate(w, cfg, k.split)
	})
}
