// Command gmtfleet simulates a fleet of GPU tiering nodes serving one
// shared open-loop request stream: N nodes instantiated from weighted
// hardware templates, a deterministic router partitioning the stream,
// and fleet-wide hit rates, throughput, and exact latency percentiles
// folded from the per-node runs. Output is byte-identical at any
// -parallel N.
//
// Usage:
//
//	gmtfleet [flags]
//
// Flags:
//
//	-nodes N       fleet size (default 16, at most 4096)
//	-templates S   weighted template mix, e.g. "a100:3,h100:1"
//	-router NAME   hash | wrr (default hash)
//	-requests N    total requests (default 24 per node, at most 2^20)
//	-rate R        base arrival rate in req/s (default 8 per node)
//	-seed N        node runtime seed offset
//	-t2policy P    Tier-2 replacement policy: clock|fifo|lru-2|2q
//	-parallel N    worker goroutines simulating nodes (default GOMAXPROCS)
//	-json          emit the canonical JSON result instead of tables
//	-svg DIR       write the fleet-scaling figure into DIR
//	-scaling LIST  sweep fleet sizes (e.g. "4,8,16,32") under the
//	               -nodes stream held fixed, instead of one run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/gmtsim/gmt/internal/buildinfo"
	"github.com/gmtsim/gmt/internal/fleet"
)

func main() {
	nodes := flag.Int("nodes", 16, "fleet size")
	templatesFlag := flag.String("templates", "a100:3,h100:1", "weighted template mix")
	router := flag.String("router", "hash", "request router: hash|wrr")
	requests := flag.Int("requests", 0, "total requests (0 = 24 per node)")
	rate := flag.Float64("rate", 0, "base arrival rate req/s (0 = 8 per node)")
	seed := flag.Int64("seed", 1, "node runtime seed offset")
	t2policy := flag.String("t2policy", "", "Tier-2 replacement policy: clock|fifo|lru-2|2q")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines simulating nodes (1 = fully sequential)")
	jsonOut := flag.Bool("json", false, "emit canonical JSON instead of tables")
	svgDir := flag.String("svg", "", "directory to write the fleet-scaling SVG into")
	scaling := flag.String("scaling", "", "comma-separated fleet sizes to sweep (e.g. 4,8,16,32)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("gmtfleet", buildinfo.Version())
		return
	}

	cfg, err := fleet.FromOptions(fleet.Options{
		Nodes:       *nodes,
		Templates:   *templatesFlag,
		Router:      *router,
		Requests:    *requests,
		Rate:        *rate,
		Seed:        *seed,
		Tier2Policy: *t2policy,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Wall clock is cmd/-only (norealtime); it feeds pool telemetry,
	// never the simulation or the canonical output.
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start)) }
	ctx := context.Background()

	if *scaling != "" {
		sizes, err := parseSizes(*scaling)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		points, err := fleet.ScalingSweep(ctx, cfg, sizes, *parallel, clock)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(fleet.ScalingTable(points).Render())
		if *svgDir != "" {
			writeSVG(*svgDir, "fleet_scaling", fleet.ScalingSVG(points).SVG())
		}
		return
	}

	res, pool, err := fleet.Run(ctx, cfg, *parallel, clock)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *jsonOut {
		if err := fleet.EncodeResult(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(fleet.Render(res))
	fmt.Printf("\nsimulated %d nodes on %d workers [%v]\n",
		res.Nodes, pool.Workers, time.Duration(pool.BusyNS).Round(time.Millisecond))
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad fleet size %q", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("empty -scaling list")
	}
	return sizes, nil
}

func writeSVG(dir, name, svg string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	path := filepath.Join(dir, name+".svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
