package core

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
// sequential scans (SSD fills and Tier-2 hits), a hot set that hits
// Tier-1, in-flight joins, writes, and a barrier closing each phase.
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

// TestUpPathStagedGolden pins the exact output of the UpPathThroughTier2
// ablation, which no experiment runs: every SSD fill lands in a host
// staging buffer and is moved up by the warp. Each entry is the full
// stats.Run of one policy at one warp count, with the kernel's wall,
// compute and stall time. After an intended change of output, refresh
// with
//
//	go test ./internal/core -run TestUpPathStagedGolden -update
func TestUpPathStagedGolden(t *testing.T) {
	type pin struct {
		Name string
		Run  stats.Run
	}
	var pins []pin
	trace := pinTrace()
	for _, pol := range []PolicyKind{PolicyTierOrder, PolicyRandom, PolicyReuse} {
		for _, warps := range []int{1, 8, 64} {
			cfg := smallConfig(pol)
			cfg.UpPathThroughTier2 = true
			eng := sim.NewEngine()
			rt := NewRuntime(eng, cfg)
			g := gpu.New(eng, gpu.Config{Warps: warps, ComputePerAccess: 200}, &gpu.SliceStream{Trace: trace}, rt)
			g.Launch()
			eng.Run()
			if !g.Done() {
				t.Fatalf("%v/%d warps: kernel did not finish", pol, warps)
			}
			rt.CheckInvariants()
			m := rt.Snapshot()
			if m.SSDFills == 0 || m.Tier1Hits == 0 || m.Tier2Hits == 0 || g.Barriers() == 0 {
				t.Fatalf("%v/%d warps: trace misses an outcome: %+v", pol, warps, m)
			}
			m.WallTime = eng.Now()
			m.WarpComputeNS, m.WarpStallNS = g.ComputeTime(), g.StallTime()
			pins = append(pins, pin{fmt.Sprintf("%v/warps=%d", pol, warps), m})
		}
	}
	got, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "upstaged.json", append(got, '\n'))
}

// checkGolden compares got with testdata/file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
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
		t.Fatalf("output differs from %s (rerun with -update only if the change is intended):\n%s", path, firstDiff(want, got))
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "no line differs"
}
