package exp

import (
	"context"
	"fmt"
	"testing"

	"github.com/gmtsim/gmt/internal/workload"
)

// TestFigure8ByteIdentical is the determinism regression gate: the
// quarter-scale Figure 8 experiment — nine applications under BaM and
// the three GMT policies, end to end through the GPU model, tiers, PCIe,
// and NVMe — is run twice from scratch, and the full rendered stats
// output must be byte-identical. CI also runs this under
// -tags gmtinvariants so the conservation checks ride along.
func TestFigure8ByteIdentical(t *testing.T) {
	render := func() string {
		s := NewSuite(workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2})
		rows, tbl := Figure8(s)
		// Render both the human-facing table and the raw rows: fmt's %#v
		// prints map keys in sorted order, so any divergence — down to a
		// single counter — shows up as a byte difference.
		return tbl.Render() + fmt.Sprintf("%#v", rows)
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("two identically-seeded Figure 8 runs diverged:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}
}

// TestKVServeByteIdentical holds the same determinism bar for the
// KV-serving policy study: the open-loop arrival process, the four
// Tier-2 replacement policies, and the reuse-percentile collection must
// reproduce byte-for-byte from scratch.
func TestKVServeByteIdentical(t *testing.T) {
	render := func() string {
		s := NewSuite(workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2})
		rows, tbl := KVServe(s)
		return tbl.Render() + fmt.Sprintf("%#v", rows)
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("two identically-seeded KV-serving runs diverged:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}
}

// TestParallelPrewarmByteIdentical is the parallel-path determinism
// gate: prewarming the suite on a multi-worker pool and then rendering
// must produce byte-identical output to a fully sequential run — the
// pool only fills the memo, so worker count and scheduling order must
// be invisible. Runs with -race in CI, which also exercises the suite
// lock under real contention.
func TestParallelPrewarmByteIdentical(t *testing.T) {
	// fig12 rides along to cover phased runs and cross-suite BaM reuse:
	// its sub-suites take pooled units from concurrent workers.
	experiments := []string{"fig8", "fig9", "fig12", "fig14", "kvserve"}
	render := func(workers int) string {
		s := NewSuite(workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2})
		if workers > 1 {
			rep, err := Prewarm(context.Background(), s, experiments, workers, nil)
			if err != nil {
				t.Fatalf("prewarm failed: %v", err)
			}
			if rep.JobsPlanned == 0 {
				t.Fatal("parallel prewarm planned no jobs")
			}
		}
		rows8, tbl8 := Figure8(s)
		rows9, tbl9 := Figure9(s)
		rows12, tbl12 := Figure12(s)
		rows14, tbl14 := Figure14(s)
		rowsKV, tblKV := KVServe(s)
		return tbl8.Render() + tbl9.Render() + tbl12.Render() + tbl14.Render() + tblKV.Render() +
			fmt.Sprintf("%#v%#v%#v%#v%#v", rows8, rows9, rows12, rows14, rowsKV)
	}
	sequential := render(1)
	for _, workers := range []int{2, 4} {
		if got := render(workers); got != sequential {
			t.Fatalf("%d-worker prewarm diverged from the sequential run", workers)
		}
	}
}
