package baseline

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
)

var update = flag.Bool("update", false, "rewrite the committed golden outputs under testdata/")

// pinTrace is a small kernel mixing every access outcome: overlapping
// sequential scans (faults, page-cache hits and prefetchable blocks), a
// hot set that hits Tier-1, in-flight joins, writes, and a barrier
// closing each phase.
func pinTrace() []gpu.Access {
	var tr []gpu.Access
	for phase := 0; phase < 6; phase++ {
		for i := 0; i < 400; i++ {
			p := tier.PageID(phase*75 + i%150)
			if i%3 == 0 {
				p = tier.PageID(5000 + i%24)
			}
			tr = append(tr, gpu.Access{Page: p, Write: i%7 == 0})
		}
		tr = append(tr, gpu.Barrier)
	}
	return tr
}

// TestHMMGolden pins the exact output of the HMM baseline on paths no
// experiment reaches: UVM's block prefetcher, alone and under the
// optimistic forced page-cache hit rate, next to plain HMM. Each entry
// is the full stats.Run of one configuration at one warp count, with
// the kernel's wall, compute and stall time. After an intended change
// of output, refresh with
//
//	go test ./internal/baseline -run TestHMMGolden -update
func TestHMMGolden(t *testing.T) {
	type pin struct {
		Name string
		Run  stats.Run
	}
	var pins []pin
	trace := pinTrace()
	for _, block := range []int{0, 8} {
		for _, rate := range []float64{-1, 0.5} {
			for _, warps := range []int{2, 16, 64} {
				cfg := smallHMM()
				cfg.PrefetchBlock, cfg.ForcedHitRate = block, rate
				eng := sim.NewEngine()
				h := NewHMM(eng, cfg)
				g := gpu.New(eng, gpu.Config{Warps: warps, ComputePerAccess: 200}, &gpu.SliceStream{Trace: trace}, h)
				g.Launch()
				eng.Run()
				if !g.Done() {
					t.Fatalf("block %d, rate %v, %d warps: kernel did not finish", block, rate, warps)
				}
				h.CheckInvariants()
				m := h.Snapshot()
				if m.SSDFills == 0 || m.Tier1Hits == 0 || m.Tier2Hits == 0 || g.Barriers() == 0 ||
					(block > 1) != (m.Prefetches > 0) {
					t.Fatalf("block %d, rate %v, %d warps: trace misses an outcome: %+v", block, rate, warps, m)
				}
				m.WallTime = eng.Now()
				m.WarpComputeNS, m.WarpStallNS = g.ComputeTime(), g.StallTime()
				pins = append(pins, pin{fmt.Sprintf("block=%d/rate=%v/warps=%d", block, rate, warps), m})
			}
		}
	}
	got, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "hmm.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (rerun with -update only if the change is intended)", path)
	}
}
