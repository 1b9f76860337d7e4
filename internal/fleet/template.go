// Package fleet simulates a fleet of GPU tiering nodes: N instances of
// the single-node GMT engine (internal/core), instantiated from
// weighted hardware templates, serving one shared open-loop request
// stream that a deterministic router partitions into per-node
// sub-streams; a node runs each request as its own kernel. Per-node
// runs execute on the internal/exp worker pool and a fleet
// aggregator folds their stats into fleet-wide hit rates, throughput,
// and exact latency percentiles — byte-identical at any worker count.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// Template is one node hardware class: tier capacities, GPU shape, and
// an SSD profile layered over the single-node defaults the same way the
// storage-generation sensitivity sweep scales its drives. Weight sets
// both the template's share of fleet nodes and its routing weight.
type Template struct {
	Name   string
	Weight int

	// Tier capacities in pages (quarter-scale like the experiment
	// suite, so several-hundred-node fleets stay tractable).
	Tier1Pages int
	Tier2Pages int

	// GPU shape.
	Warps            int
	ComputePerAccess sim.Time

	// SSD profile: multipliers over the default drive plus the link
	// width, mirroring exp.SSDGen.
	SSDBWMult  float64
	SSDLatMult float64
	SSDLanes   int
}

// Registry of known templates. The A100-like class is the paper's
// testbed shape; the H100-like class doubles capacity and storage
// bandwidth and halves per-access compute.
var templates = map[string]Template{
	"a100": {
		Name: "a100", Weight: 1,
		Tier1Pages: 256, Tier2Pages: 1024,
		Warps: 64, ComputePerAccess: 200 * sim.Nanosecond,
		SSDBWMult: 1, SSDLatMult: 1, SSDLanes: 4,
	},
	"h100": {
		Name: "h100", Weight: 1,
		Tier1Pages: 512, Tier2Pages: 2048,
		Warps: 128, ComputePerAccess: 100 * sim.Nanosecond,
		SSDBWMult: 2, SSDLatMult: 0.7, SSDLanes: 8,
	},
}

// TemplateNames lists the known template names, sorted.
func TemplateNames() []string {
	names := make([]string, 0, len(templates))
	for n := range templates {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseTemplates parses a "name[:weight],name[:weight]" spec against
// the registry. Weight defaults to the template's registered weight;
// an explicit ":w" overrides it.
func ParseTemplates(spec string) ([]Template, error) {
	var out []Template
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wspec, hasW := strings.Cut(part, ":")
		t, ok := templates[strings.ToLower(name)]
		if !ok {
			return nil, fmt.Errorf("fleet: unknown template %q (known: %s)",
				name, strings.Join(TemplateNames(), ", "))
		}
		if hasW {
			w, err := strconv.Atoi(wspec)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("fleet: bad weight %q for template %q", wspec, name)
			}
			t.Weight = w
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: empty template spec")
	}
	return out, nil
}

// ExpandTemplates assigns each of n node slots a template index by
// smooth weighted round-robin, so classes interleave evenly (a 3:1
// fleet of 8 is a-a-h-a repeating, not a block of six then two). The
// assignment is a pure function of (templates, n).
func ExpandTemplates(ts []Template, n int) []int {
	total := 0
	for _, t := range ts {
		total += t.Weight
	}
	cur := make([]int, len(ts))
	out := make([]int, n)
	for i := 0; i < n; i++ {
		best := 0
		for j := range ts {
			cur[j] += ts[j].Weight
			if cur[j] > cur[best] {
				best = j
			}
		}
		cur[best] -= total
		out[i] = best
	}
	return out
}

// coreConfig layers the template over the single-node defaults: the
// Tier-2-ordered policy (the serving study's base, so Tier2Policy is
// honored) with this class's capacities and drive.
func (t Template) coreConfig(seed int64, t2 tier.StorePolicy) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyTierOrder
	cfg.Tier1Pages = t.Tier1Pages
	cfg.Tier2Pages = t.Tier2Pages
	cfg.Seed = seed
	cfg.Tier2Policy = t2
	cfg.SSD.MediaReadBps = int64(float64(cfg.SSD.MediaReadBps) * t.SSDBWMult)
	cfg.SSD.MediaWriteBps = int64(float64(cfg.SSD.MediaWriteBps) * t.SSDBWMult)
	cfg.SSD.ReadLatency = sim.Time(float64(cfg.SSD.ReadLatency) * t.SSDLatMult)
	cfg.SSD.WriteLatency = sim.Time(float64(cfg.SSD.WriteLatency) * t.SSDLatMult)
	cfg.SSD.Lanes = t.SSDLanes
	return cfg
}

// gpuConfig is the template's GPU shape.
func (t Template) gpuConfig() gpu.Config {
	return gpu.Config{Warps: t.Warps, ComputePerAccess: t.ComputePerAccess}
}
