// Command gmtbench regenerates the paper's tables and figures, plus the
// extension studies. Each experiment prints the same rows/series the
// paper reports, computed from deterministic simulations.
//
// Usage:
//
//	gmtbench [flags] [experiment ...]
//
// Experiments: table1, table2, fig4, fig6, fig7, fig8, fig9, fig10,
// fig11, fig12, fig13, fig14, oracle, ext, ssd, predictors, warmup,
// util, kvserve, and all (the default).
//
// Flags:
//
//	-t1 N        Tier-1 capacity in 64 KiB pages (default 1024 ≈ paper's 16 GB / 256)
//	-t2 N        Tier-2 capacity in pages (default 4096)
//	-osf F       oversubscription factor (default 2)
//	-dataseed N  dataset-synthesis seed for the Kronecker graph and the
//	             KV-serving request mix (default 42)
//	-quick       quarter-scale run (fast smoke of every experiment)
//	-json        emit rows as JSON instead of rendered tables
//	-svg DIR     additionally write SVG figures (fig6, fig8, fig9, fig12,
//	             fig14, ssd, kvserve) into DIR
//	-parallel N  worker goroutines prewarming traces and simulations
//	             (default GOMAXPROCS; 1 = fully sequential). Output is
//	             byte-identical for any N: workers only fill the result
//	             memo, rendering then replays the same sequential reads.
//	-cpuprofile P  write a CPU profile (pprof) to P
//	-memprofile P  write an allocation profile (pprof) to P
//	-trace P       write a runtime execution trace to P
//	-timeout D   deadline for the prewarm phase, observed between pool
//	             jobs (an in-progress simulation finishes); on expiry
//	             gmtbench exits 1 without rendering
//	-version     print the build's module version and VCS info, then exit
//
// Profiles are finalized when the run completes successfully; the
// simulator packages themselves are banned from runtime/pprof (the
// norealtime discipline), so this command is the profiling entry point
// for the whole tree.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"github.com/gmtsim/gmt/internal/buildinfo"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/plot"
	"github.com/gmtsim/gmt/internal/workload"
)

// workerFairness renders the pool's per-worker busy profile for the
// human-readable output. Skew is max/min busy time — the at-a-glance
// signal that a long-tail job pinned one worker while the rest idled.
// Empty for a single-worker pool, where there is nothing to compare.
func workerFairness(busyNS []int64) string {
	if len(busyNS) < 2 {
		return ""
	}
	min, max := busyNS[0], busyNS[0]
	var b strings.Builder
	b.WriteString("  worker busy:")
	for _, ns := range busyNS {
		if ns < min {
			min = ns
		}
		if ns > max {
			max = ns
		}
		fmt.Fprintf(&b, " %v", time.Duration(ns).Round(time.Millisecond))
	}
	if min <= 0 {
		b.WriteString(" (idle worker)")
	} else {
		fmt.Fprintf(&b, " (skew %.2fx)", float64(max)/float64(min))
	}
	return b.String()
}

func main() {
	t1 := flag.Int("t1", 1024, "Tier-1 capacity in 64 KiB pages")
	t2 := flag.Int("t2", 4096, "Tier-2 capacity in 64 KiB pages")
	osf := flag.Float64("osf", 2, "oversubscription factor")
	dataseed := flag.Int64("dataseed", 42, "dataset-synthesis seed (Kronecker graph, KV-serving mix)")
	quick := flag.Bool("quick", false, "quarter-scale fast run")
	jsonOut := flag.Bool("json", false, "emit rows as JSON")
	svgDir := flag.String("svg", "", "directory to write SVG figures into")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines prewarming simulations (1 = sequential)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this path")
	timeout := flag.Duration("timeout", 0,
		"deadline for the prewarm phase; on expiry remaining jobs are skipped and gmtbench exits 1")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("gmtbench", buildinfo.Version())
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err == nil {
			err = trace.Start(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	writeSVG := func(name string, f *plot.Figure) {
		if *svgDir == "" {
			return
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := filepath.Join(*svgDir, name+".svg")
		if err := os.WriteFile(path, []byte(f.SVG()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("wrote %s\n", path)
		}
	}

	scale := workload.Scale{Tier1Pages: *t1, Tier2Pages: *t2, Oversubscription: *osf, DatasetSeed: *dataseed}
	if *quick {
		scale.Tier1Pages = *t1 / 4
		scale.Tier2Pages = *t2 / 4
	}

	var suite *exp.Suite
	getSuite := func() *exp.Suite {
		if suite == nil {
			if !*jsonOut {
				fmt.Printf("building workload suite (T1=%d pages, T2=%d pages, OSF=%.1f)...\n\n",
					scale.Tier1Pages, scale.Tier2Pages, scale.Oversubscription)
			}
			suite = exp.NewSuite(scale)
		}
		return suite
	}

	order := exp.ExperimentNames

	// Expand "all" and validate names up front, so the planner sees the
	// complete job set before any worker starts. Dispatch itself lives in
	// exp.RunExperiment, shared with the gmtd daemon.
	var experiments []string
	for _, name := range flag.Args() {
		if name == "all" {
			experiments = append(experiments, order...)
			continue
		}
		if !exp.KnownExperiment(name) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from %v or 'all'\n", name, order)
			os.Exit(2)
		}
		experiments = append(experiments, name)
	}
	if len(experiments) == 0 {
		experiments = order
	}

	// The exp package is banned from reading wall time (the norealtime
	// analyzer covers everything outside cmd/), so inject a monotonic
	// clock for the prewarm summary.
	harnessStart := time.Now()
	clock := func() int64 { return int64(time.Since(harnessStart)) }

	needsSuite := false
	for _, name := range experiments {
		if exp.NeedsSuite(name) {
			needsSuite = true
		}
	}

	// -timeout bounds the prewarm phase through the pool's context path:
	// workers observe the deadline between jobs, so expiry stops the run
	// at job granularity. Forcing the prewarm path even at -parallel 1
	// keeps the flag meaningful for sequential runs.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if (*parallel > 1 || *timeout > 0) && needsSuite {
		rep, err := exp.Prewarm(ctx, getSuite(), experiments, *parallel, clock)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gmtbench: prewarm aborted after %d jobs: %v\n",
				rep.JobsPlanned, err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("prewarmed %d jobs on %d workers: %d simulations, %d memo hits [%v]\n",
				rep.JobsPlanned, rep.Workers, rep.Sims, rep.CacheHits,
				time.Duration(rep.WallNS).Round(time.Millisecond))
			if line := workerFairness(rep.WorkerBusyNS); line != "" {
				fmt.Printf("%s\n", line)
			}
			fmt.Println()
		}
	}

	var svgSink exp.SVGSink
	if *svgDir != "" {
		svgSink = writeSVG
	}
	for _, name := range experiments {
		start := time.Now()
		rows, text, _ := exp.RunExperiment(getSuite, name, svgSink)
		if *jsonOut {
			if err := exp.EncodeExperiment(os.Stdout, name, rows); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Println(text)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		trace.Stop()
	}
	if *memprofile != "" {
		runtime.GC() // settle the heap so the profile shows live objects accurately
		f, err := os.Create(*memprofile)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
