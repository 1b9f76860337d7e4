package workload

import (
	"math/rand"
	"sort"
	"sync"

	"github.com/gmtsim/gmt/internal/gpu"
)

// KVServeName is the KV-cache serving workload's suite name. It is not
// part of the paper's nine-application suite (Names); the serving-policy
// experiment requests it explicitly.
const KVServeName = "KVServe"

// Step kinds of the serving event timeline.
const (
	kvPrefill = iota
	kvDecode
	kvFollowUp
)

// kvFollowUpPages is the KV footprint a follow-up turn appends.
const kvFollowUpPages = 2

// kvRequest is one planned conversation request: a prompt prefilled
// against a shared prefix, a decode phase appending KV blocks, and an
// optional follow-up turn that reloads the whole context.
type kvRequest struct {
	prefix      int     // shared prefix index
	promptStart int64   // first prompt KV page
	promptLen   int     // prompt KV pages
	genStart    int64   // first decode-generated KV page
	genLen      int     // decode-generated KV pages
	decodeSteps int     // decode iterations
	followUp    bool    // second turn after think time
	fuStart     int64   // first follow-up KV page
	arrive      float64 // open-loop arrival instant, seconds
}

// kvStep is one timeline event; seq breaks same-instant ties so the
// interleaving is deterministic.
type kvStep struct {
	at   float64
	seq  int64
	req  int32
	kind uint8
	k    int32 // decode step index (kvDecode only)
}

// KVServeWorkload generates a tiered LLM KV-cache serving trace: pages
// are KV blocks. Each request prefetches a shared prompt prefix
// (prefix reuse across requests), appends prompt KV during prefill,
// then decodes step by step — every step re-reads its recent context
// window while KV blocks below the recency threshold are offloaded and
// re-fetched only every OffloadStride steps. A fraction of requests
// returns after a think time and reloads the entire context (the
// reload-from-Tier-2-instead-of-recompute pattern GMT accelerates).
//
// Requests arrive open-loop: a seeded Poisson process whose rate
// follows a multi-period schedule (diurnal burst pattern), so load is
// independent of service progress. All randomness comes from one
// seeded generator; the trace is a pure function of (Scale, seed).
type KVServeWorkload struct {
	Scale Scale

	// Prefixes counts the distinct shared prompt prefixes (system
	// prompts / few-shot preambles); each occupies PrefixPages KV
	// blocks, read in full at prefill.
	Prefixes    int
	PrefixPages int

	// Prompt and decode shapes, drawn uniformly per request
	// (inclusive bounds).
	MinPromptPages, MaxPromptPages int
	MinDecodeSteps, MaxDecodeSteps int

	// StepsPerPage decode steps fill one new KV block.
	StepsPerPage int

	// RecentWindow context pages are re-read every decode step; older
	// (offloaded) blocks and the full prefix are re-fetched only every
	// OffloadStride steps.
	RecentWindow  int
	OffloadStride int

	// Open-loop arrivals: BaseRate requests/second scaled by the
	// RateSchedule multiplier active at the arrival instant; each
	// schedule entry lasts PeriodSec.
	BaseRate     float64
	RateSchedule []float64
	PeriodSec    float64

	// PrefillSec is the prefill latency; StepSec the per-decode-step
	// latency. They position decode events on the arrival timeline.
	PrefillSec float64
	StepSec    float64

	// FollowUpProb of requests issue a second turn ThinkSec after
	// decode completes, reloading prefix + prompt + generated KV.
	FollowUpProb float64
	ThinkSec     float64

	seed int64

	once  sync.Once
	trace []gpu.Access
	pages int64
}

// NewKVServe builds the serving workload at the given scale, seeded
// from the scale's dataset seed. Knob defaults size the prefix pool to
// the hierarchy and pick a burst schedule whose peak concurrency
// overflows Tier-1 so placement policy matters.
func NewKVServe(s Scale) *KVServeWorkload {
	prefixPages := s.Tier1Pages / 32
	if prefixPages < 8 {
		prefixPages = 8
	}
	return &KVServeWorkload{
		Scale:          s,
		Prefixes:       8,
		PrefixPages:    prefixPages,
		MinPromptPages: 4,
		MaxPromptPages: 16,
		MinDecodeSteps: 16,
		MaxDecodeSteps: 48,
		StepsPerPage:   8,
		RecentWindow:   16,
		OffloadStride:  4,
		BaseRate:       float64(s.Tier1Pages) / 128,
		RateSchedule:   []float64{1, 4, 1, 0.25},
		PeriodSec:      30,
		PrefillSec:     0.2,
		StepSec:        0.05,
		FollowUpProb:   0.35,
		ThinkSec:       10,
		seed:           s.datasetSeed(),
	}
}

// Name implements Workload.
func (w *KVServeWorkload) Name() string { return KVServeName }

// Pages implements Workload.
func (w *KVServeWorkload) Pages() int64 { w.build(); return w.pages }

// Trace implements Workload. The trace is built once and cached;
// repeated calls return the same slice.
func (w *KVServeWorkload) Trace() []gpu.Access { w.build(); return w.trace }

// build plans the request mix and arrival timeline, then emits the
// interleaved access stream in (time, sequence) order.
func (w *KVServeWorkload) build() {
	w.once.Do(func() {
		rng := rand.New(rand.NewSource(w.seed))
		working := int64(w.Scale.WorkingSetPages())

		// Plan requests until the KV area (working set minus the
		// prefix pool) is exhausted. Every draw happens in a fixed
		// order, so the plan is a pure function of the seed.
		sched := RateSchedule{Base: w.BaseRate, Mult: w.RateSchedule, PeriodSec: w.PeriodSec}
		var reqs []kvRequest
		cursor := int64(w.Prefixes * w.PrefixPages)
		t := 0.0
		for {
			t = sched.Next(rng, t)
			r := kvRequest{
				prefix:      rng.Intn(w.Prefixes),
				promptLen:   w.MinPromptPages + rng.Intn(w.MaxPromptPages-w.MinPromptPages+1),
				decodeSteps: w.MinDecodeSteps + rng.Intn(w.MaxDecodeSteps-w.MinDecodeSteps+1),
				followUp:    rng.Float64() < w.FollowUpProb,
				arrive:      t,
			}
			r.genLen = r.decodeSteps / w.StepsPerPage
			need := int64(r.promptLen + r.genLen)
			if r.followUp {
				need += kvFollowUpPages
			}
			if cursor+need > working {
				break
			}
			r.promptStart = cursor
			r.genStart = cursor + int64(r.promptLen)
			if r.followUp {
				r.fuStart = r.genStart + int64(r.genLen)
			}
			cursor += need
			reqs = append(reqs, r)
		}

		// Lay every request's events on one timeline and sort by
		// (instant, sequence) — concurrent requests interleave exactly
		// as a serving engine would execute them.
		var steps []kvStep
		add := func(at float64, req int32, kind uint8, k int32) {
			steps = append(steps, kvStep{at: at, seq: int64(len(steps)), req: req, kind: kind, k: k})
		}
		for i := range reqs {
			r := &reqs[i]
			add(r.arrive, int32(i), kvPrefill, 0)
			for k := 0; k < r.decodeSteps; k++ {
				add(r.arrive+w.PrefillSec+float64(k+1)*w.StepSec, int32(i), kvDecode, int32(k))
			}
			if r.followUp {
				end := r.arrive + w.PrefillSec + float64(r.decodeSteps)*w.StepSec
				add(end+w.ThinkSec, int32(i), kvFollowUp, 0)
			}
		}
		sort.Slice(steps, func(a, b int) bool {
			if steps[a].at != steps[b].at {
				return steps[a].at < steps[b].at
			}
			return steps[a].seq < steps[b].seq
		})

		b := &traceBuilder{}
		for _, st := range steps {
			w.emit(b, &reqs[st.req], st)
		}
		w.trace = b.trace()
		w.pages = cursor
	})
}

// ctxPage maps context index i (prompt pages first, then generated
// pages) to its KV page.
func ctxPage(r *kvRequest, i int) int64 {
	if i < r.promptLen {
		return r.promptStart + int64(i)
	}
	return r.genStart + int64(i-r.promptLen)
}

// emit appends one step's accesses.
func (w *KVServeWorkload) emit(b *traceBuilder, r *kvRequest, st kvStep) {
	prefixStart := int64(r.prefix * w.PrefixPages)
	readPrefix := func() {
		for p := 0; p < w.PrefixPages; p++ {
			b.read(prefixStart + int64(p))
		}
	}
	switch st.kind {
	case kvPrefill:
		// Attend over the shared prefix, append the prompt's KV.
		readPrefix()
		for p := 0; p < r.promptLen; p++ {
			b.write(r.promptStart + int64(p))
		}
	case kvDecode:
		k := int(st.k)
		filled := k / w.StepsPerPage
		ctx := r.promptLen + filled
		full := k%w.OffloadStride == 0
		if full {
			readPrefix()
		} else {
			// Off-step: only the prefix head block stays resident-hot.
			b.read(prefixStart)
		}
		lo := 0
		if !full && ctx > w.RecentWindow {
			lo = ctx - w.RecentWindow
		}
		for i := lo; i < ctx; i++ {
			b.read(ctxPage(r, i))
		}
		if (k+1)%w.StepsPerPage == 0 && filled < r.genLen {
			b.write(r.genStart + int64(filled))
		}
	case kvFollowUp:
		// Second turn: reload the entire context rather than
		// recomputing it, then append the new turn's KV.
		readPrefix()
		for i := 0; i < r.promptLen+r.genLen; i++ {
			b.read(ctxPage(r, i))
		}
		for p := int64(0); p < kvFollowUpPages; p++ {
			b.write(r.fuStart + p)
		}
	}
}
