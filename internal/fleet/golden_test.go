package fleet

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed golden outputs under testdata/")

// TestFleetGoldens pins absolute fleet output, not just agreement
// between worker counts: each file under testdata holds the bytes
// `gmtfleet -json` prints for its options, and a run at 1 and at 4
// workers must equal them. The default 16-node fleet covers hash
// routing over the 3:1 a100/h100 mix; the 64-node run adds weighted
// round-robin routing and a non-default Tier-2 policy. After an
// intended change of output, refresh with
//
//	go test ./internal/fleet -run TestFleetGoldens -update
func TestFleetGoldens(t *testing.T) {
	for _, c := range []struct {
		file string
		opts Options // as cmd/gmtfleet resolves its flags
	}{
		{"nodes16.json", Options{Nodes: 16, Templates: "a100:3,h100:1", Router: "hash", Seed: 1}},
		{"nodes64_wrr_2q.json", Options{Nodes: 64, Templates: "a100:3,h100:1", Router: "wrr", Seed: 1, Tier2Policy: "2q"}},
	} {
		t.Run(c.file, func(t *testing.T) {
			cfg, err := FromOptions(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.file)
			for _, workers := range []int{1, 4} {
				res, _, err := Run(context.Background(), cfg, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := EncodeResult(&got, res); err != nil {
					t.Fatal(err)
				}
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
					t.Fatalf("workers=%d: output differs from %s (rerun with -update only if the change is intended):\n%s",
						workers, path, firstDiff(want, got.Bytes()))
				}
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
