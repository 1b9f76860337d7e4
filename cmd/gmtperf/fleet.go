package main

import (
	"bytes"
	"context"
	"time"

	"github.com/gmtsim/gmt/internal/fleet"
)

// fleetBench runs gmtfleet's default 256-node fleet over a stream drawn
// from the run's seed.
func fleetBench(seed int64) bench {
	cfg := fleet.DefaultConfig(256)
	cfg.Stream.Seed = seed
	return bench{pass: func(lay layers) (passResult, error) {
		digest, err := fleetPass(cfg, lay)
		return passResult{digest: digest}, err
	}, ops: 1}
}

// fleetPass runs the fleet and encodes its result, returning the digest
// of the encoded bytes — what `gmtfleet -nodes 256 -json` prints.
// Traced, it first times stream generation, routing and splitting on
// their own (fleet.Run repeats that work inside), then splits the run
// into node simulations (the pool's busy time) and everything else.
func fleetPass(cfg fleet.Config, lay layers) (string, error) {
	var clock func() int64
	var routingMS float64
	if lay != nil {
		t := time.Now()
		reqs := fleet.GenerateStream(cfg.Stream)
		lay.set("fleet.stream_ms", ms(time.Since(t)), 1)
		t = time.Now()
		tplIdx := fleet.ExpandTemplates(cfg.Templates, cfg.Nodes)
		weights := make([]int, cfg.Nodes)
		for i, ti := range tplIdx {
			weights[i] = cfg.Templates[ti].Weight
		}
		assign := fleet.Assign(cfg.Router, weights, reqs)
		lay.set("fleet.route_ms", ms(time.Since(t)), 1)
		t = time.Now()
		fleet.Split(reqs, assign, cfg.Nodes)
		lay.set("fleet.split_ms", ms(time.Since(t)), 1)
		routingMS = lay["fleet.stream_ms"].v + lay["fleet.route_ms"].v + lay["fleet.split_ms"].v
		start := time.Now()
		clock = func() int64 { return int64(time.Since(start)) }
	}
	t := time.Now()
	res, pool, err := fleet.Run(context.Background(), cfg, 1, clock)
	runMS := ms(time.Since(t))
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	t = time.Now()
	if err := fleet.EncodeResult(&out, res); err != nil {
		return "", err
	}
	encodeMS := ms(time.Since(t))
	if lay != nil {
		busyMS := float64(pool.BusyNS) / 1e6
		lay.set("fleet.nodes_busy_ms", busyMS, cfg.Nodes)
		lay.set("fleet.other_ms", runMS-busyMS-routingMS, 1)
		lay.set("fleet.encode_ms", encodeMS, 1)
		lay.set("fleet.ns_per_request", (runMS+encodeMS)*1e6/float64(res.Fleet.Requests), res.Fleet.Requests)
		lay.set("fleet.sim_p99_ms", res.Fleet.LatencyP99MS, res.Fleet.Requests)
	}
	return sha(out.Bytes()), nil
}
