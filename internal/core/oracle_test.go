package core

import (
	"math/rand"
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// oracleChurnTrace mixes a hot set, a cyclic scan and one-shot pages
// over a footprint well beyond Tier-1 plus Tier-2, so an oracle run
// evicts from both tiers, keeps and displaces Tier-2 residents, and
// retires dead pages. Barriers split it into phases as the paper
// workloads' traces are split; they occupy Future positions no access
// consumes, so a page's next use can move backwards as well as forwards,
// which leaves stale heap entries above current ones.
func oracleChurnTrace(rng *rand.Rand, n, footprint int) []gpu.Access {
	tr := make([]gpu.Access, n)
	scan, fresh := 0, footprint
	for i := range tr {
		if i%250 == 249 {
			tr[i] = gpu.Barrier
			continue
		}
		var p int
		switch rng.Intn(4) {
		case 0:
			p = rng.Intn(24) // hot set
		case 1:
			p = 24 + scan%(footprint-24) // cyclic scan
			scan++
		case 2:
			p = fresh // used once, dead afterwards
			fresh++
		default:
			p = rng.Intn(footprint)
		}
		tr[i] = gpu.Access{Page: tier.PageID(p), Write: rng.Intn(5) == 0}
	}
	return tr
}

// oracleAgree compares each tier's heap pick with furthest's scan.
func oracleAgree(t *testing.T, rt *Runtime) int {
	t.Helper()
	checks := 0
	for _, tr := range []struct {
		name  string
		store tier.Store
		heap  *oracleHeap
	}{{"Tier-1", rt.t1, &rt.t1Heap}, {"Tier-2", rt.t2, &rt.t2Heap}} {
		if tr.store.Len() == 0 {
			continue
		}
		want, _ := rt.furthest(tr.store)
		if got, _ := rt.oracleVictim(tr.store, tr.heap); got != want {
			t.Fatalf("%s: heap picked page %d, scan picked %d", tr.name, got, want)
		}
		if n := len(*tr.heap); n > oracleStale*tr.store.Capacity() {
			t.Fatalf("%s: heap holds %d entries for %d slots", tr.name, n, tr.store.Capacity())
		}
		checks++
	}
	return checks
}

// oracleLockstep runs one kernel over trace and compares the heaps with
// the scan between every pair of distinct instants, so the heaps are
// checked after every insert, removal and next-use change the runtime
// makes, not only at evictions.
func oracleLockstep(t *testing.T, eng *sim.Engine, rt *Runtime, trace []gpu.Access) int {
	t.Helper()
	g := gpu.New(eng, gpu.Config{Warps: 8, ComputePerAccess: 200}, &gpu.SliceStream{Trace: trace}, rt)
	g.Launch()
	checks := 0
	for eng.Pending() > 0 {
		at, _ := eng.Peek()
		eng.RunUntil(at)
		checks += oracleAgree(t, rt)
	}
	if !g.Done() {
		t.Fatal("kernel did not finish")
	}
	rt.CheckInvariants()
	return checks
}

// TestOracleHeapMatchesScan is the differential test behind the
// oracle's victim heaps: over randomized traces, under every Tier-2
// replacement policy, with and without asynchronous placement, the
// heap's pick equals furthest's at every instant of the run.
func TestOracleHeapMatchesScan(t *testing.T) {
	for _, pol := range tier.StorePolicies {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			trace := oracleChurnTrace(rng, 3000, 400)
			cfg := oracleConfig(trace)
			cfg.Tier2Policy = pol
			cfg.AsyncEviction = seed%2 == 0
			eng := sim.NewEngine()
			rt := NewRuntime(eng, cfg)
			checks := oracleLockstep(t, eng, rt, trace)
			m := rt.Snapshot()
			if m.Tier2Evictions == 0 || m.EvictionsToTier2 == 0 || checks == 0 {
				t.Fatalf("%s seed %d: trace too tame (%d Tier-2 evictions, %d placements, %d checks)",
					pol, seed, m.Tier2Evictions, m.EvictionsToTier2, checks)
			}
		}
	}
}

// TestOracleHeapForkedRuntime drives the heaps through forked oracle
// runtimes. A child clones Tier-1 without a heap and must build one
// before it relies on it: at its first Tier-1 hit (the split after the
// warm-up) or at its first eviction (the longest eviction-free split).
// Its picks must match the scan throughout, and the whole run must
// match a parent that kept going.
func TestOracleHeapForkedRuntime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	warm := make([]gpu.Access, 0, 97)
	for i := 0; i < 96; i++ {
		warm = append(warm, gpu.Access{Page: tier.PageID(i % 32), Write: i%7 == 0})
	}
	warm = append(warm, gpu.Access{Page: 5}) // a Tier-1 hit right after the first split
	trace := append(warm, oracleChurnTrace(rng, 3000, 400)...)
	cfg := oracleConfig(trace)
	longest := EvictionFreePrefix(trace, cfg.Tier1Pages)
	if longest < len(warm) {
		t.Fatalf("prefix too short: %d", longest)
	}
	for _, k := range []int{len(warm) - 1, longest} {
		eng1 := sim.NewEngine()
		rt1 := NewRuntime(eng1, cfg)
		runPhase(t, eng1, rt1, trace[:k], 8)
		runPhase(t, eng1, rt1, trace[k:], 8)

		eng2 := sim.NewEngine()
		rt2 := NewRuntime(eng2, cfg)
		runPhase(t, eng2, rt2, trace[:k], 8)
		child := rt2.Fork(sim.NewEngineFrom(eng2.Snapshot()), cfg)
		if len(child.t1Heap) != 0 || child.t1.Len() != cfg.Tier1Pages {
			t.Fatalf("split %d: child starts with %d heap entries for %d Tier-1 residents, want an empty heap and a full tier",
				k, len(child.t1Heap), child.t1.Len())
		}
		ceng := child.Engine()
		gcfg := gpu.DefaultConfig()
		gcfg.Warps = 8
		g := gpu.New(ceng, gcfg, &gpu.SliceStream{Trace: trace[k:]}, child)
		g.Launch()
		for ceng.Pending() > 0 {
			at, _ := ceng.Peek()
			ceng.RunUntil(at)
			oracleAgree(t, child)
		}
		if !g.Done() {
			t.Fatalf("split %d: child kernel did not finish", k)
		}
		child.CheckInvariants()

		if eng1.Now() != ceng.Now() {
			t.Errorf("split %d: wall time: continuation %d, fork %d", k, eng1.Now(), ceng.Now())
		}
		if m1, m2 := rt1.Snapshot(), child.Snapshot(); m1 != m2 {
			t.Errorf("split %d: metrics diverged:\ncontinuation: %+v\nfork:         %+v", k, m1, m2)
		}
	}
}

// TestOracleHeapOrder pins the heap's order on hand-built entries: later
// use first, dead pages furthest, ties to the smaller page ID.
func TestOracleHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h oracleHeap
	uses := []int64{5, -1, 9, 9, -1, 0, 7}
	for _, i := range rng.Perm(len(uses)) {
		h.push(oracleEntry{use: oracleKey(uses[i]), page: tier.PageID(10 + i)})
	}
	// Dead pages 11 and 14 first (smaller ID wins), then use 9 (pages 12
	// and 13), 7, 5, 0.
	want := []tier.PageID{11, 14, 12, 13, 16, 10, 15}
	for i, p := range want {
		if h[0].page != p {
			t.Fatalf("pop %d: top is page %d, want %d", i, h[0].page, p)
		}
		h.pop()
	}
	if len(h) != 0 {
		t.Fatalf("%d entries left", len(h))
	}
}
