package main

import (
	"runtime"
	"slices"
	"time"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/graph"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/workload"
)

// layerProbes times single layers through their public entry points,
// outside any pass and with the same work on every workload: the
// Kronecker graph build, each application's trace generation, and the
// reference simulations — 9 apps × 4 policies on a quick-scale suite
// with the run's dataset seed — whose simulated counts must stay
// identical under any change that only speeds up the simulator.
func layerProbes(seed int64, lay layers) {
	sc := quickScale(seed)

	scale, edgeFactor := kronParams(sc)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	edges := graph.GenerateKron(scale, edgeFactor, datasetSeed(sc))
	lay.set("graph.kron_ms", ms(time.Since(t)), 1)
	t = time.Now()
	graph.BuildCSR(int32(1)<<scale, edges)
	lay.set("graph.csr_ms", ms(time.Since(t)), 1)
	runtime.ReadMemStats(&m1)
	lay.set("graph.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, 1)

	// Trace generation proper: the graph apps' shared graph is built
	// first, outside the timers (graph.* above measures that build).
	s := exp.NewSuite(sc)
	apps := append(slices.Clip(s.Apps()), s.KVApp())
	for _, w := range apps {
		if graphApps[w.Name()] {
			w.Pages()
		}
	}
	accesses := 0
	for _, w := range apps {
		t := time.Now()
		accesses += len(s.Trace(w))
		lay.set("workload.trace_ms."+w.Name(), ms(time.Since(t)), 1)
	}
	lay.set("workload.trace_accesses", float64(accesses), len(apps))

	var sum stats.Run
	var simNS time.Duration
	runs := 0
	for _, w := range s.Apps() {
		for _, p := range []core.PolicyKind{core.PolicyBaM, core.PolicyTierOrder, core.PolicyRandom, core.PolicyReuse} {
			t := time.Now()
			r := s.Run(w, p)
			simNS += time.Since(t)
			runs++
			sum.Accesses += r.Accesses
			sum.WarpComputeNS += r.WarpComputeNS
			sum.WarpStallNS += r.WarpStallNS
			sum.Tier1Hits += r.Tier1Hits
			sum.InFlightJoins += r.InFlightJoins
			sum.Tier2Hits += r.Tier2Hits
			sum.SSDFills += r.SSDFills
			sum.WastefulLookups += r.WastefulLookups
			sum.EvictionsToTier2 += r.EvictionsToTier2
			sum.EvictionsToSSD += r.EvictionsToSSD
			sum.Tier2Evictions += r.Tier2Evictions
			sum.SSDReads += r.SSDReads
			sum.SSDWrites += r.SSDWrites
			sum.PagesToGPU += r.PagesToGPU
			sum.PagesToHost += r.PagesToHost
			sum.Predictions += r.Predictions
			sum.CorrectPredictions += r.CorrectPredictions
		}
	}
	lay.set("sim.run_ns_per_access", float64(simNS)/float64(sum.Accesses), runs)
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"gpu.accesses", sum.Accesses},
		{"core.tier1_hits", sum.Tier1Hits},
		{"core.inflight_joins", sum.InFlightJoins},
		{"core.tier2_hits", sum.Tier2Hits},
		{"core.ssd_fills", sum.SSDFills},
		{"core.wasteful_lookups", sum.WastefulLookups},
		{"core.evictions_to_tier2", sum.EvictionsToTier2},
		{"core.evictions_to_ssd", sum.EvictionsToSSD},
		{"tier.tier2_evictions", sum.Tier2Evictions},
		{"nvme.reads", sum.SSDReads},
		{"nvme.writes", sum.SSDWrites},
		{"pcie.pages_to_gpu", sum.PagesToGPU},
		{"pcie.pages_to_host", sum.PagesToHost},
	} {
		lay.set(c.name, float64(c.v), runs)
	}
	lay.set("gpu.stall_ratio", 1-sum.GPUUtilization(), runs)
	lay.set("reuse.accuracy", sum.PredictionAccuracy(), runs)
}

// kronParams is workload.GraphSet's sizing: vertex arrays take ≈20% and
// the edge list ≈80% of the working set, at 256 elements per page.
func kronParams(sc workload.Scale) (scale, edgeFactor int) {
	const elemsPerPage = 256
	w := int64(sc.WorkingSetPages())
	targetV := w / 10 * elemsPerPage
	scale = 1
	for int64(1)<<(scale+1) <= targetV {
		scale++
	}
	edgeFactor = int(w * 8 / 10 * elemsPerPage >> scale)
	return scale, max(edgeFactor, 1)
}

// datasetSeed resolves a scale's dataset seed the way workload does.
func datasetSeed(sc workload.Scale) int64 {
	if sc.DatasetSeed == 0 {
		return 42
	}
	return sc.DatasetSeed
}
