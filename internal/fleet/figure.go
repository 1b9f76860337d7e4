package fleet

import (
	"context"
	"fmt"

	"github.com/gmtsim/gmt/internal/plot"
	"github.com/gmtsim/gmt/internal/stats"
)

// ScalingPoint is one fleet size's aggregate under the fixed stream.
type ScalingPoint struct {
	Nodes         int     `json:"nodes"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"latency_p50_ms"`
	P99MS         float64 `json:"latency_p99_ms"`
	P999MS        float64 `json:"latency_p999_ms"`
}

// ScalingSweep runs the fleet at each size while holding base's shared
// stream FIXED: the same traffic spread over more nodes, so the sweep
// shows how fleet growth absorbs a given load (queueing latency falls,
// per-node cache pressure eases) rather than re-scaling the offered
// load with the fleet. Every size is checked against the fleet size
// limits before any runs.
//
//gmt:blocking
func ScalingSweep(ctx context.Context, base Config, sizes []int, workers int, clock func() int64) ([]ScalingPoint, error) {
	for _, n := range sizes {
		if err := checkSize(n, base.Stream.Requests); err != nil {
			return nil, err
		}
	}
	var out []ScalingPoint
	for _, n := range sizes {
		cfg := base
		cfg.Nodes = n
		res, _, err := Run(ctx, cfg, workers, clock)
		if err != nil {
			return out, err
		}
		out = append(out, ScalingPoint{
			Nodes:         n,
			ThroughputRPS: res.Fleet.ThroughputRPS,
			P50MS:         res.Fleet.LatencyP50MS,
			P99MS:         res.Fleet.LatencyP99MS,
			P999MS:        res.Fleet.LatencyP999MS,
		})
	}
	return out, nil
}

// ScalingSVG plots the sweep: latency percentiles against fleet size.
func ScalingSVG(points []ScalingPoint) *plot.Figure {
	f := plot.NewFigure("Fleet scaling: latency vs nodes under fixed load",
		"nodes", "latency (ms)")
	f.Line = true
	var p50, p99, p999 []float64
	for _, p := range points {
		f.Labels = append(f.Labels, fmt.Sprintf("%d", p.Nodes))
		p50 = append(p50, p.P50MS)
		p99 = append(p99, p.P99MS)
		p999 = append(p999, p.P999MS)
	}
	f.Add("p50", p50)
	f.Add("p99", p99)
	f.Add("p99.9", p999)
	return f
}

// ScalingTable renders the sweep as a terminal table.
func ScalingTable(points []ScalingPoint) *stats.Table {
	t := stats.NewTable("Fleet scaling under fixed load",
		"Nodes", "Throughput", "p50", "p99", "p99.9")
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.1f req/s", p.ThroughputRPS),
			fmt.Sprintf("%.2f ms", p.P50MS),
			fmt.Sprintf("%.2f ms", p.P99MS),
			fmt.Sprintf("%.2f ms", p.P999MS),
		)
	}
	return t
}
