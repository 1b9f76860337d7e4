package exp

import (
	"fmt"
	"time"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/plot"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
)

// KVPolicies is the Tier-2 replacement-policy axis of the KV-serving
// study, in rendering order. Clock is the reference point the speedup
// column normalizes against.
var KVPolicies = []tier.StorePolicy{
	tier.StoreClock, tier.StoreFIFO, tier.StoreLRUK, tier.StoreTwoQ,
}

// KVServeRow is one policy's outcome under the serving trace.
type KVServeRow struct {
	Policy           string
	Tier2HitRate     float64
	ReuseP50         sim.Time // time from Tier-2 placement to first reload
	ReuseP99         sim.Time
	ReuseCount       int64
	SSDReads         int64
	WallTime         sim.Time
	SpeedupOverClock float64
}

// kvConfig is one serving-policy run's config. The base policy is
// TierOrder — every Tier-1 victim lands in Tier-2, so the replacement
// policy under study sees the full eviction stream rather than a
// placement predictor's pre-filtered one.
func (s *Suite) kvConfig(p tier.StorePolicy) core.Config {
	cfg := s.config(core.PolicyTierOrder)
	cfg.Tier2Policy = p
	cfg.TrackTier2Reuse = true
	return cfg
}

// KVServe compares Tier-2 replacement policies under the open-loop
// KV-cache serving trace: hit rate, time-to-first-reuse percentiles
// (how long a KV block sits in host memory before the serving engine
// reloads it), SSD reads, and wall time normalized to Clock.
func KVServe(s *Suite) ([]KVServeRow, *stats.Table) {
	w := s.KVApp()
	t := stats.NewTable("KV-cache serving: Tier-2 replacement policy study (open-loop arrivals)",
		"Policy", "T2 hit rate", "reuse p50", "reuse p99", "samples", "SSD reads", "speedup vs clock")
	base := s.runConfig(w, s.kvConfig(tier.StoreClock), true)
	var rows []KVServeRow
	for _, p := range KVPolicies {
		m := s.runConfig(w, s.kvConfig(p), true)
		r := KVServeRow{
			Policy:           string(p),
			Tier2HitRate:     m.Tier2HitRate(),
			ReuseP50:         m.Tier2ReuseP50,
			ReuseP99:         m.Tier2ReuseP99,
			ReuseCount:       m.Tier2ReuseCount,
			SSDReads:         m.SSDReads,
			WallTime:         m.WallTime,
			SpeedupOverClock: m.SpeedupOver(base),
		}
		rows = append(rows, r)
		t.AddRow(string(p),
			fmt.Sprintf("%.1f%%", 100*r.Tier2HitRate),
			time.Duration(r.ReuseP50).String(),
			time.Duration(r.ReuseP99).String(),
			fmt.Sprintf("%d", r.ReuseCount),
			fmt.Sprintf("%d", r.SSDReads),
			stats.X(r.SpeedupOverClock))
	}
	return rows, t
}

// KVServeSVG renders the policy study: hit-rate bars with the Clock
// level as the baseline rule.
func KVServeSVG(rows []KVServeRow) *plot.Figure {
	f := plot.NewFigure("KV-cache serving: Tier-2 hit rate by replacement policy ("+workload.KVServeName+" trace)",
		"Tier-2 replacement policy", "Tier-2 hit rate")
	var hit, sp []float64
	for _, r := range rows {
		f.Labels = append(f.Labels, r.Policy)
		hit = append(hit, r.Tier2HitRate)
		sp = append(sp, r.SpeedupOverClock)
	}
	f.Add("Tier-2 hit rate", hit)
	f.Add("speedup vs clock", sp)
	return f
}
