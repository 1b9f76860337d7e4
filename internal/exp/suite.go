// Package exp contains one driver per table and figure of the paper's
// evaluation (§3): each driver runs the necessary simulations and
// renders the same rows/series the paper reports. Experiment results are
// deterministic for a given scale and seed.
//
// A Suite is safe for concurrent use: the parallel prewarmer (pool.go)
// runs many simulations at once, each on its own private sim.Engine, and
// commits results into singleflight memos. The simulator packages
// themselves stay single-goroutine — concurrency lives entirely at this
// orchestration layer (see HACKING.md).
package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/gmtsim/gmt/internal/baseline"
	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/workload"
)

// Policies in the order the paper's figures present them.
var Policies = []core.PolicyKind{
	core.PolicyTierOrder, core.PolicyRandom, core.PolicyReuse,
}

// Suite caches workloads, traces, trace analyses and simulation results
// for one scale, so figures sharing runs (8, 9, 10, 14) pay for each
// simulation once.
//
// A result is keyed by the run's inputs (runKey), Seed and GPU among
// them: mutating Seed or GPU between runs transparently computes fresh
// results instead of returning stale ones, and restoring the old values
// finds the old results again.
type Suite struct {
	Scale workload.Scale
	GPU   gpu.Config
	Seed  int64

	// phased marks a sensitivity sub-suite whose simulations split at
	// the eviction-free warm-up prefix (simulate). data, when non-nil,
	// is the suite whose workloads and trace memo this suite borrows
	// (the sweep varies the machine, not the datasets).
	phased bool
	data   *Suite

	label string // distinguishes derived sub-suites in planner job keys
	apps  []workload.Workload
	kvApp workload.Workload // lazily built KV-serving workload

	// unitMu guards units, the pool of recycled {engine, runtime} pairs
	// every simulation draws from (phased.go): a finished run's
	// page-directory arena, tier arrays, and event arena are reset and
	// reused by the next sweep point instead of reallocated. Results are
	// byte-identical either way (core.Runtime.Reset's contract).
	unitMu sync.Mutex
	units  []*runUnit

	// runs is the root suite's run memo, shared by its derived
	// sub-suites, so a run one of them computed is a hit for all.
	// traces and analyses are per suite, by workload name.
	runs       *memo[runKey, stats.Run]
	traces     memo[string, []gpu.Access]
	analyses   memo[string, workload.Characteristics]
	sims, hits atomic.Int64 // this suite's simulations executed and memo hits served

	mu       sync.Mutex // guards kvApp, subs and subOrder
	subs     map[string]*Suite
	subOrder []string
}

// NewSuite builds the nine-application suite at the given scale.
func NewSuite(scale workload.Scale) *Suite {
	return &Suite{
		Scale: scale,
		GPU:   gpu.DefaultConfig(),
		Seed:  1,
		label: "root",
		apps:  workload.All(scale),
		runs:  &memo[runKey, stats.Run]{},
		subs:  make(map[string]*Suite),
	}
}

// NewRegularSuite builds only the non-graph applications (Figure 13).
func NewRegularSuite(scale workload.Scale) *Suite {
	s := NewSuite(scale)
	s.apps = workload.Regular(scale)
	return s
}

// WithSeed returns a fresh suite at s's scale running under seed whose
// datasets are s's: it adopts s's workloads and trace memo (adoptData),
// so suites for many seeds at one scale build each graph and trace once.
// The new suite has a run memo of its own, so dropping it frees its
// results.
func (s *Suite) WithSeed(seed int64) *Suite {
	sub := NewSuite(s.Scale)
	sub.Seed = seed
	sub.GPU = s.GPU
	sub.adoptData(s)
	return sub
}

// Apps reports the suite's workloads.
func (s *Suite) Apps() []workload.Workload { return s.apps }

// KVApp returns the suite's KV-cache serving workload, built lazily on
// first use (it is not part of the paper's nine-application suite, so
// only the serving experiment pays for it). The workload memoizes its
// own trace; Suite.Trace caches it under KVServeName like any app. A
// suite that adopted another's datasets shares that suite's workload.
func (s *Suite) KVApp() workload.Workload {
	if s.data != nil {
		return s.data.KVApp()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kvApp == nil {
		s.kvApp = workload.NewKVServe(s.Scale)
	}
	return s.kvApp
}

// Fingerprint identifies the mutable knobs results depend on (Seed,
// GPU, Scale). The serving layer (internal/serve) uses it as the
// content address of cached responses: equal fingerprints give equal
// run keys, so a daemon cache hit is exactly a memo hit one level up.
func (s *Suite) Fingerprint() string {
	return fmt.Sprintf("@seed=%d,gpu=%+v,scale=%+v", s.Seed, s.GPU, s.Scale)
}

// Trace returns (and caches) the workload's access trace. Concurrent
// callers for the same workload block until the single generation
// finishes (trace generation is the second-largest cost after the
// simulations themselves).
func (s *Suite) Trace(w workload.Workload) []gpu.Access {
	tr, _ := s.dataSuite().traces.get(w.Name(), w.Trace)
	return tr
}

// characteristics returns w's trace characteristics against the suite's
// tiers, the numbers Table 2 and Figure 7 report, analyzing each trace
// once per suite.
func (s *Suite) characteristics(w workload.Workload) workload.Characteristics {
	c, _ := s.analyses.get(w.Name(), func() workload.Characteristics {
		return workload.Analyze(w.Name(), s.Trace(w), s.Scale, 64*1024, 0).Characteristics
	})
	return c
}

// memo is a singleflight cache: the first caller of a key computes its
// value while concurrent callers of that key wait for it, so each key
// is computed once. If the computation panics, the waiters retry (and
// typically panic the same way).
type memo[K comparable, V any] struct {
	mu       sync.Mutex
	vals     map[K]V
	inflight map[K]chan struct{}
}

// get returns k's value, computing it on a miss; computed reports
// whether this call computed it.
func (m *memo[K, V]) get(k K, compute func() V) (V, bool) {
	for {
		m.mu.Lock()
		if v, ok := m.vals[k]; ok {
			m.mu.Unlock()
			return v, false
		}
		ch, wait := m.inflight[k]
		if !wait {
			if m.inflight == nil {
				m.inflight = make(map[K]chan struct{})
			}
			ch = make(chan struct{})
			m.inflight[k] = ch
		}
		m.mu.Unlock()
		if !wait {
			return m.fill(k, ch, compute), true
		}
		<-ch
	}
}

// fill computes and commits k's value, then releases k's waiters, also
// when compute panics.
func (m *memo[K, V]) fill(k K, ch chan struct{}, compute func() V) V {
	defer func() {
		m.mu.Lock()
		delete(m.inflight, k)
		m.mu.Unlock()
		close(ch)
	}()
	v := compute()
	m.put(k, v)
	return v
}

// put commits v under k.
func (m *memo[K, V]) put(k K, v V) {
	m.mu.Lock()
	if m.vals == nil {
		m.vals = make(map[K]V)
	}
	m.vals[k] = v
	m.mu.Unlock()
}

// memoized returns the run under k from the root's memo, computing it
// with compute on a miss, and counts the simulation or the hit against
// s.
func (s *Suite) memoized(k runKey, compute func() stats.Run) stats.Run {
	r, computed := s.runs.get(k, compute)
	if computed {
		s.sims.Add(1)
	} else {
		s.hits.Add(1)
	}
	return r
}

// storeResult commits a run computed outside the memo under w's key for
// cfg: RegressionWarmup reads its runtime's history, which a memoized
// run does not carry.
func (s *Suite) storeResult(w workload.Workload, cfg core.Config, m stats.Run) {
	s.runs.put(s.key(w, cfg, false, nil), m)
	s.sims.Add(1)
}

// Simulations reports how many simulations this suite has executed
// (memo misses; excludes derived sub-suites).
func (s *Suite) Simulations() int64 { return s.sims.Load() }

// CacheHits reports how many results were served from the memo
// (excludes derived sub-suites).
func (s *Suite) CacheHits() int64 { return s.hits.Load() }

// Counters reports simulations executed and memo hits, aggregated over
// this suite and every derived sub-suite.
func (s *Suite) Counters() (sims, hits int64) {
	sims, hits = s.sims.Load(), s.hits.Load()
	s.mu.Lock()
	subs := make([]*Suite, 0, len(s.subOrder))
	for _, k := range s.subOrder {
		subs = append(subs, s.subs[k])
	}
	s.mu.Unlock()
	for _, sub := range subs {
		a, b := sub.Counters()
		sims += a
		hits += b
	}
	return sims, hits
}

// derived returns the sub-suite registered under key, creating it with
// mk on first use. Sensitivity figures (11, 12, 13) derive alternate
// scales from a parent suite; registering them here lets the planner and
// the renderer agree on one sub-suite per derived scale, and every
// sub-suite shares the root's run memo. The sub-suite's Seed and GPU
// follow the parent's.
func (s *Suite) derived(key string, mk func() *Suite) *Suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[key]
	if !ok {
		sub = mk()
		sub.label = s.label + "/" + key
		sub.runs = s.runs
		s.subs[key] = sub
		s.subOrder = append(s.subOrder, key)
	}
	// Write only on change: steady-state parallel phases never write, so
	// sub-suite reads inside running jobs race with nothing.
	if sub.Seed != s.Seed {
		sub.Seed = s.Seed
	}
	if sub.GPU != s.GPU {
		sub.GPU = s.GPU
	}
	return sub
}

// config builds the runtime configuration for one policy at this scale.
func (s *Suite) config(p core.PolicyKind) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = p
	cfg.Tier1Pages = s.Scale.Tier1Pages
	cfg.Tier2Pages = s.Scale.Tier2Pages
	cfg.Seed = s.Seed
	return cfg
}

// Run simulates the workload under a GMT policy (or BaM), returning the
// run metrics with WallTime filled in. Results are memoized by run key;
// phased sub-suites split the GMT policies' runs at the eviction-free
// prefix.
//
//gmt:blocking
func (s *Suite) Run(w workload.Workload, p core.PolicyKind) stats.Run {
	return s.runConfig(w, s.config(p), s.phased)
}

// hmmConfig is the CPU-orchestrated baseline's config at this scale.
func (s *Suite) hmmConfig(forcedHitRate float64) baseline.HMMConfig {
	cfg := baseline.DefaultHMMConfig()
	cfg.Tier1Pages = s.Scale.Tier1Pages
	cfg.PageCachePages = s.Scale.Tier2Pages
	cfg.ForcedHitRate = forcedHitRate
	cfg.Seed = s.Seed
	return cfg
}

// RunHMM simulates the workload under the CPU-orchestrated baseline.
// forcedHitRate < 0 runs real HMM; otherwise the §3.6 optimistic
// variant.
//
//gmt:blocking
func (s *Suite) RunHMM(w workload.Workload, forcedHitRate float64) stats.Run {
	cfg := s.hmmConfig(forcedHitRate)
	return s.memoized(s.key(w, core.Config{}, false, &cfg), func() stats.Run {
		cfg.FootprintPages = int(w.Pages())
		eng := sim.NewEngine()
		h := baseline.NewHMM(eng, cfg)
		g := gpu.New(eng, s.GPU, &gpu.SliceStream{Trace: s.Trace(w)}, h)
		g.Launch()
		eng.Run()
		if !g.Done() {
			panic(fmt.Sprintf("exp: %s under HMM did not finish", w.Name()))
		}
		m := h.Snapshot()
		m.App = w.Name()
		m.WallTime = eng.Now()
		return m
	})
}

// Speedup reports base/t for the workload under policy p vs BaM.
func (s *Suite) Speedup(w workload.Workload, p core.PolicyKind) float64 {
	return s.Run(w, p).SpeedupOver(s.Run(w, core.PolicyBaM))
}

// geomean of a slice (arithmetic mean matches the paper's "average
// speedup" phrasing; both are reported by drivers where useful).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
