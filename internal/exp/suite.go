// Package exp contains one driver per table and figure of the paper's
// evaluation (§3): each driver runs the necessary simulations and
// renders the same rows/series the paper reports. Experiment results are
// deterministic for a given scale and seed.
//
// A Suite is safe for concurrent use: the parallel prewarmer (pool.go)
// runs many simulations at once, each on its own private sim.Engine, and
// commits results into the memo under the suite lock. The simulator
// packages themselves stay single-goroutine — concurrency lives entirely
// at this orchestration layer (see HACKING.md).
package exp

import (
	"fmt"
	"sync"

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

// Suite caches workloads, traces, and simulation results for one scale,
// so figures sharing runs (8, 9, 10, 14) pay for each simulation once.
//
// Memo keys include a fingerprint of the knobs a result depends on
// (Seed, GPU, Scale): mutating Seed or GPU between runs transparently
// computes fresh results instead of returning stale ones, and restoring
// the old values finds the old results again.
type Suite struct {
	Scale workload.Scale
	GPU   gpu.Config
	Seed  int64

	// phased marks a sensitivity sub-suite whose simulations split at
	// the eviction-free warm-up prefix (simulate). data, when non-nil,
	// is the suite whose workloads and trace memo this suite borrows
	// (the sweep varies the machine, not the datasets); share holds the
	// root's cross-suite BaM results (phased.go).
	phased bool
	data   *Suite
	share  *shareCache

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

	mu            sync.Mutex
	traces        map[string][]gpu.Access
	traceInflight map[string]chan struct{}
	results       map[string]stats.Run
	runInflight   map[string]chan struct{}
	subs          map[string]*Suite
	subOrder      []string
	sims          int64 // simulations actually executed
	hits          int64 // memoized results served
}

// NewSuite builds the nine-application suite at the given scale.
func NewSuite(scale workload.Scale) *Suite {
	return &Suite{
		Scale:         scale,
		GPU:           gpu.DefaultConfig(),
		Seed:          1,
		label:         "root",
		share:         newShareCache(),
		apps:          workload.All(scale),
		traces:        make(map[string][]gpu.Access),
		traceInflight: make(map[string]chan struct{}),
		results:       make(map[string]stats.Run),
		runInflight:   make(map[string]chan struct{}),
		subs:          make(map[string]*Suite),
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
// Results stay per suite; they depend on the seed.
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

// Fingerprint identifies the mutable knobs results depend on. It is
// part of every memo key, so stale results can never be returned after
// a caller changes Seed or GPU (they are simply not found). The serving
// layer (internal/serve) reuses it as the content address of cached
// responses, so a daemon cache hit is exactly a memo hit one level up.
func (s *Suite) Fingerprint() string {
	return fmt.Sprintf("@seed=%d,gpu=%+v,scale=%+v", s.Seed, s.GPU, s.Scale)
}

// Trace returns (and caches) the workload's access trace. Concurrent
// callers for the same workload block until the single generation
// finishes (trace generation is the second-largest cost after the
// simulations themselves).
func (s *Suite) Trace(w workload.Workload) []gpu.Access {
	if s.data != nil {
		return s.data.Trace(w)
	}
	name := w.Name()
	for {
		s.mu.Lock()
		if tr, ok := s.traces[name]; ok {
			s.mu.Unlock()
			return tr
		}
		if ch, ok := s.traceInflight[name]; ok {
			s.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		s.traceInflight[name] = ch
		s.mu.Unlock()

		var tr []gpu.Access
		func() {
			defer func() {
				s.mu.Lock()
				delete(s.traceInflight, name)
				s.mu.Unlock()
				close(ch)
			}()
			tr = w.Trace()
			s.mu.Lock()
			s.traces[name] = tr
			s.mu.Unlock()
		}()
		return tr
	}
}

// memoRun returns the cached result for key at the current fingerprint,
// or computes it via compute. Exactly one goroutine computes a given
// key; others requesting it block until the result is committed. If the
// computer panics, waiters retry (and typically re-panic the same way).
func (s *Suite) memoRun(key string, compute func() stats.Run) stats.Run {
	full := key + s.Fingerprint()
	for {
		s.mu.Lock()
		if r, ok := s.results[full]; ok {
			s.hits++
			s.mu.Unlock()
			return r
		}
		if ch, ok := s.runInflight[full]; ok {
			s.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		s.runInflight[full] = ch
		s.mu.Unlock()

		var r stats.Run
		func() {
			defer func() {
				s.mu.Lock()
				delete(s.runInflight, full)
				s.mu.Unlock()
				close(ch)
			}()
			r = compute()
			s.mu.Lock()
			s.results[full] = r
			s.sims++
			s.mu.Unlock()
		}()
		return r
	}
}

// storeResult commits an externally computed run into the memo under the
// current fingerprint (used by drivers whose simulations need more than
// the Run snapshot, e.g. RegressionWarmup's history inspection).
func (s *Suite) storeResult(key string, m stats.Run) {
	full := key + s.Fingerprint()
	s.mu.Lock()
	s.results[full] = m
	s.sims++
	s.mu.Unlock()
}

// Simulations reports how many simulations this suite has executed
// (memo misses; excludes derived sub-suites).
func (s *Suite) Simulations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sims
}

// CacheHits reports how many results were served from the memo
// (excludes derived sub-suites).
func (s *Suite) CacheHits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Counters reports simulations executed and memo hits, aggregated over
// this suite and every derived sub-suite.
func (s *Suite) Counters() (sims, hits int64) {
	s.mu.Lock()
	sims, hits = s.sims, s.hits
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
// the renderer agree on one shared memo per derived scale. The
// sub-suite's Seed and GPU follow the parent's.
func (s *Suite) derived(key string, mk func() *Suite) *Suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[key]
	if !ok {
		sub = mk()
		sub.label = s.label + "/" + key
		sub.share = s.share // one sharing domain per root suite
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
// run metrics with WallTime filled in. Results are memoized. A BaM run
// is computed once per root suite for all sub-suites that agree on
// its dataset and core.BaMEquivalent config; phased sub-suites split
// the other policies' runs at the eviction-free prefix.
//
//gmt:blocking
func (s *Suite) Run(w workload.Workload, p core.PolicyKind) stats.Run {
	cfg := s.config(p)
	cfg.FootprintPages = int(w.Pages())
	return s.memoRun(w.Name()+"/"+p.String(), func() stats.Run {
		if p == core.PolicyBaM {
			key := fmt.Sprintf("bam|%s|gpu=%+v|cfg=%+v", s.dataKey(w), s.GPU, core.BaMEquivalent(cfg))
			return s.share.run(key, func() stats.Run { return s.simulate(w, cfg, false) })
		}
		return s.simulate(w, cfg, s.phased)
	})
}

// RunHMM simulates the workload under the CPU-orchestrated baseline.
// forcedHitRate < 0 runs real HMM; otherwise the §3.6 optimistic
// variant.
//
//gmt:blocking
func (s *Suite) RunHMM(w workload.Workload, forcedHitRate float64) stats.Run {
	cfg := baseline.DefaultHMMConfig()
	cfg.Tier1Pages = s.Scale.Tier1Pages
	cfg.PageCachePages = s.Scale.Tier2Pages
	cfg.ForcedHitRate = forcedHitRate
	cfg.Seed = s.Seed
	cfg.FootprintPages = int(w.Pages())
	gcfg := s.GPU
	key := fmt.Sprintf("%s/HMM/%.3f", w.Name(), forcedHitRate)
	return s.memoRun(key, func() stats.Run {
		eng := sim.NewEngine()
		h := baseline.NewHMM(eng, cfg)
		g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: s.Trace(w)}, h)
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
