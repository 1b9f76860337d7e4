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

// TestOracleHeapRecycledRuntime drives the heaps through a recycled
// runtime, the way exp's unit pool serves the oracle study: a runtime
// whose earlier oracle run left both tiers full and both heaps populated
// is Reset to a new trace's config. Its picks must match the scan
// throughout, and the run must match a fresh runtime's.
func TestOracleHeapRecycledRuntime(t *testing.T) {
	first := oracleChurnTrace(rand.New(rand.NewSource(5)), 2000, 300)
	trace := oracleChurnTrace(rand.New(rand.NewSource(7)), 3000, 400)
	cfg := oracleConfig(trace)

	eng1 := sim.NewEngine()
	fresh := NewRuntime(eng1, cfg)
	oracleLockstep(t, eng1, fresh, trace)

	eng2 := sim.NewEngine()
	rt := NewRuntime(eng2, oracleConfig(first))
	oracleLockstep(t, eng2, rt, first)
	if len(rt.t1Heap) == 0 || len(rt.t2Heap) == 0 {
		t.Fatal("first run left a heap empty; the Reset below tests nothing")
	}
	rt.Reset(cfg)
	if checks := oracleLockstep(t, eng2, rt, trace); checks == 0 {
		t.Fatal("recycled run made no heap checks")
	}
	if eng1.Now() != eng2.Now() || eng1.Steps() != eng2.Steps() {
		t.Errorf("recycled run: now %d, %d steps; fresh: now %d, %d steps",
			eng2.Now(), eng2.Steps(), eng1.Now(), eng1.Steps())
	}
	if m1, m2 := fresh.Snapshot(), rt.Snapshot(); m1 != m2 {
		t.Errorf("metrics diverged:\nfresh:    %+v\nrecycled: %+v", m1, m2)
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
