package fleet

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
)

// Decode cadence constants, matching the KV-serving workload's shape:
// one generated KV page per stepsPerPage decode steps, a full prefix
// re-read every prefixStride steps (off-steps touch only the resident
// prefix head), and a recentWindow-page context re-read per step.
const (
	stepsPerPage = 8
	prefixStride = 4
	recentWindow = 8
)

// prefixPages is the per-prefix KV footprint for a node class: scaled
// to its Tier-1 so the prefix pool pressures the hierarchy comparably
// across templates.
func (t Template) prefixPages() int {
	p := t.Tier1Pages / 64
	if p < 8 {
		p = 8
	}
	return p
}

// nodeOutcome is one node's simulation result: tiering counters, the
// exact latency distribution of its requests, and the instant its last
// request completed (the node's makespan).
type nodeOutcome struct {
	run      stats.Run
	latency  stats.Digest
	requests int
	lastDone sim.Time
}

// nodeFootprint is the number of distinct pages a node's requests
// touch, computed without emitting them: the shared prefix pool
// (replicated on every node) occupies the low pages, and each request
// carves its prompt and generated KV pages off a private cursor above
// it — the final value of nodeLayout's cursor.
func nodeFootprint(tpl Template, stream StreamConfig, reqs []Request) int64 {
	n := int64(stream.Prefixes * tpl.prefixPages())
	for _, r := range reqs {
		n += int64(r.PromptPages) + int64(r.DecodeSteps/stepsPerPage)
	}
	return n
}

// nodeLayout emits a node's requests as page accesses, one request at a
// time. The accesses are a pure function of (template, stream shape,
// routed sub-stream and the order requests are emitted in) — no
// randomness.
type nodeLayout struct {
	prefixPages int
	cursor      int64 // next free KV page above the prefix pool
}

// emit appends request r's accesses to buf and returns the extended
// slice, advancing the cursor past r's prompt and generated pages.
// Prefill attends over the shared prefix and writes the prompt KV;
// each decode step re-reads the recent context window, the full prefix
// and older context only on full-attention steps, and writes a new KV
// page every stepsPerPage steps. Generated pages follow the prompt's,
// so context page j is promptStart+j.
func (l *nodeLayout) emit(buf []gpu.Access, r Request) []gpu.Access {
	pp := int64(l.prefixPages)
	prefixStart := int64(r.Prefix) * pp
	promptLen := int(r.PromptPages)
	promptStart := l.cursor
	genLen := int(r.DecodeSteps) / stepsPerPage
	genStart := promptStart + int64(promptLen)
	l.cursor = genStart + int64(genLen)

	for p := int64(0); p < pp; p++ {
		buf = append(buf, gpu.Access{Page: tier.PageID(prefixStart + p)})
	}
	for p := int64(0); p < int64(promptLen); p++ {
		buf = append(buf, gpu.Access{Page: tier.PageID(promptStart + p), Write: true})
	}
	for k := 0; k < int(r.DecodeSteps); k++ {
		filled := k / stepsPerPage
		ctx := promptLen + filled
		full := k%prefixStride == 0
		if full {
			for p := int64(0); p < pp; p++ {
				buf = append(buf, gpu.Access{Page: tier.PageID(prefixStart + p)})
			}
		} else {
			buf = append(buf, gpu.Access{Page: tier.PageID(prefixStart)})
		}
		lo := 0
		if !full && ctx > recentWindow {
			lo = ctx - recentWindow
		}
		for j := lo; j < ctx; j++ {
			buf = append(buf, gpu.Access{Page: tier.PageID(promptStart + int64(j))})
		}
		if (k+1)%stepsPerPage == 0 {
			buf = append(buf, gpu.Access{Page: tier.PageID(genStart + int64(filled)), Write: true})
		}
	}
	return buf
}

// simulateNode services the node's routed sub-stream on one recycled
// unit: each request's accesses are emitted into the unit's buffer and
// run as one kernel on the unit's GPU, to completion on the node's
// single deterministic engine (its service time is the kernel's
// simulated span), and a FIFO queue converts open-loop arrival instants
// plus service times into per-request latencies. Everything here is
// simulated time — the determinism root the fleet's byte-identical
// contract hangs off, so detflow verifies no wall clock, global
// randomness, or cross-goroutine communication is reachable from it.
//
//gmt:detroot
func simulateNode(u *unit, tpl Template, stream StreamConfig, reqs []Request) nodeOutcome {
	var (
		latencies = make([]sim.Time, 0, len(reqs))
		lastDone  sim.Time
		compute   sim.Time
		stall     sim.Time
	)
	gcfg := tpl.gpuConfig()
	pp := tpl.prefixPages()
	layout := nodeLayout{prefixPages: pp, cursor: int64(stream.Prefixes * pp)}
	for _, r := range reqs {
		u.buf = layout.emit(u.buf[:0], r)
		u.stream = gpu.SliceStream{Trace: u.buf}
		u.gpu.Reset(gcfg, &u.stream)
		t0 := u.eng.Now()
		u.gpu.Launch()
		u.eng.Run()
		if !u.gpu.Done() {
			panic(fmt.Sprintf("fleet: request %d did not finish", r.ID))
		}
		service := u.eng.Now() - t0
		compute += u.gpu.ComputeTime()
		stall += u.gpu.StallTime()

		begin := r.Arrive
		if lastDone > begin {
			begin = lastDone
		}
		done := begin + service
		lastDone = done
		latencies = append(latencies, done-r.Arrive)
	}
	m := u.rt.Snapshot()
	m.App = "fleet-node"
	m.WallTime = lastDone
	m.WarpComputeNS = int64(compute)
	m.WarpStallNS = int64(stall)
	return nodeOutcome{
		run:      m,
		latency:  stats.NewDigest(latencies),
		requests: len(reqs),
		lastDone: lastDone,
	}
}
