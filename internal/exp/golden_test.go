package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/gmtsim/gmt/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the committed golden outputs under testdata/")

// TestQuickGoldens pins absolute output, not just agreement between
// execution paths: each file under testdata holds the bytes `gmtbench
// -quick -json` prints for its experiments, and the same experiments
// rendered on a fresh quarter-scale suite must equal them. Together the
// files cover all 19 experiments. Figures 8 and 14 and the oracle study
// cover every policy's simulation, the HMM baseline and the oracle's
// victim selection; Figures 11–13 and the KV-serving study cover the
// sensitivity sub-suites, dataset adoption, cross-suite BaM dedup and
// runs split at the eviction-free prefix; ext is the only experiment
// with prefetch, and ssd the only one that drives a striped nvme.Array.
// After an intended change of output, refresh with
//
//	go test ./internal/exp -run TestQuickGoldens -update
func TestQuickGoldens(t *testing.T) {
	for _, c := range []struct {
		file        string
		experiments []string
	}{
		{"quick_fig8_fig14_oracle.json", []string{"fig8", "fig14", "oracle"}},
		{"quick_fig11_fig12_fig13_kvserve.json", []string{"fig11", "fig12", "fig13", "kvserve"}},
		{"quick_table1_table2_fig4_fig6_fig7.json", []string{"table1", "table2", "fig4", "fig6", "fig7"}},
		{"quick_fig9_fig10_ext_ssd.json", []string{"fig9", "fig10", "ext", "ssd"}},
		{"quick_predictors_warmup_util.json", []string{"predictors", "warmup", "util"}},
	} {
		t.Run(c.file, func(t *testing.T) {
			s := NewSuite(workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2, DatasetSeed: 42})
			var got bytes.Buffer
			for _, name := range c.experiments {
				rows, _, ok := RunExperiment(func() *Suite { return s }, name, nil)
				if !ok {
					t.Fatalf("unknown experiment %q", name)
				}
				if err := EncodeExperiment(&got, name, rows); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join("testdata", c.file)
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("quick %v output differs from %s (rerun with -update only if the change is intended):\n%s",
					c.experiments, path, firstDiff(want, got.Bytes()))
			}
		})
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
