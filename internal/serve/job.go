package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"github.com/gmtsim/gmt"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/fleet"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
)

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: queued → running → done | failed.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// SubmitRequest is the body of POST /v1/jobs. Exactly one of Experiment
// and Sim must be set, matching Kind.
type SubmitRequest struct {
	// Kind selects the job type: "experiment" (a named gmtbench
	// experiment), "sim" (a single app×policy run à la gmtsim), or
	// "fleet" (a fleet-scale run à la gmtfleet).
	Kind       string             `json:"kind"`
	Experiment *ExperimentRequest `json:"experiment,omitempty"`
	Sim        *SimRequest        `json:"sim,omitempty"`
	Fleet      *FleetRequest      `json:"fleet,omitempty"`
	// TimeoutMS, when positive, bounds the job's execution: the
	// deadline is observed between the job's internal pool jobs (an
	// in-progress simulation always completes), and an expired job
	// reports status "failed" with a deadline error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ExperimentRequest names a gmtbench experiment plus the same knobs the
// CLI exposes; zero values take gmtbench's defaults, so the default
// request for "fig8" is byte-equivalent to `gmtbench -json fig8`.
type ExperimentRequest struct {
	Name             string  `json:"name"`
	Tier1Pages       int     `json:"t1,omitempty"`
	Tier2Pages       int     `json:"t2,omitempty"`
	Oversubscription float64 `json:"osf,omitempty"`
	Quick            bool    `json:"quick,omitempty"`
	Seed             int64   `json:"seed,omitempty"`
	// DatasetSeed varies dataset synthesis (gmtbench's -dataseed);
	// zero takes the default seed 42.
	DatasetSeed int64 `json:"dataset_seed,omitempty"`
}

// FleetRequest runs a fleet simulation with cmd/gmtfleet's knobs; zero
// values take the CLI defaults, so the result bytes equal
// `gmtfleet -nodes N -json`.
type FleetRequest struct {
	Nodes       int     `json:"nodes"`
	Templates   string  `json:"templates,omitempty"`
	Router      string  `json:"router,omitempty"`
	Requests    int     `json:"requests,omitempty"`
	Rate        float64 `json:"rate,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Tier2Policy string  `json:"t2policy,omitempty"`
}

// SimRequest runs one application under one configuration. A nil
// Config takes gmt.DefaultConfig; a nil Scale takes gmt.DefaultScale.
type SimRequest struct {
	App    string      `json:"app"`
	Scale  *gmt.Scale  `json:"scale,omitempty"`
	Config *gmt.Config `json:"config,omitempty"`
}

// JobStatus is the JSON shape of submit and poll responses. Times are
// the server's monotonic clock (nanoseconds since daemon start).
type JobStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Status Status `json:"status"`
	// Cached is set on submit responses served from the result cache
	// or collapsed into an in-flight identical job.
	Cached      bool   `json:"cached,omitempty"`
	Error       string `json:"error,omitempty"`
	SubmittedNS int64  `json:"submitted_ns"`
	StartedNS   int64  `json:"started_ns,omitempty"`
	FinishedNS  int64  `json:"finished_ns,omitempty"`
	// ResultURL is set once the job is done.
	ResultURL string `json:"result_url,omitempty"`
}

// job is one admitted unit of work. Identity is content-addressed: the
// id is a digest of the key, and the key captures everything the
// result depends on, so identical submissions share one job.
type job struct {
	id   string
	key  string
	kind string

	ctx    context.Context
	cancel context.CancelFunc
	run    func(ctx context.Context) ([]byte, error)

	status      Status
	payload     []byte
	err         string
	submittedNS int64
	startedNS   int64
	finishedNS  int64
}

func (j *job) statusView() JobStatus {
	v := JobStatus{
		ID:          j.id,
		Kind:        j.kind,
		Status:      j.status,
		Error:       j.err,
		SubmittedNS: j.submittedNS,
		StartedNS:   j.startedNS,
		FinishedNS:  j.finishedNS,
	}
	if j.status == StatusDone {
		v.ResultURL = "/v1/jobs/" + j.id + "/result"
	}
	return v
}

func jobID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "j" + hex.EncodeToString(sum[:8])
}

// buildJob validates a request and binds its executor closure; the
// returned job is not yet admitted. Validation failures come back as
// error for a 400. reqCtx is the submitting request's context: the job
// inherits its values but not its cancellation — a job outlives the
// submit request by design (the client polls for the result).
func (s *Server) buildJob(reqCtx context.Context, req *SubmitRequest) (*job, error) {
	var key string
	var run func(ctx context.Context) ([]byte, error)
	var err error
	switch req.Kind {
	case "experiment":
		if req.Experiment == nil {
			return nil, fmt.Errorf("kind %q requires an %q object", req.Kind, req.Kind)
		}
		key, run, err = s.buildExperiment(req.Experiment)
	case "sim":
		if req.Sim == nil {
			return nil, fmt.Errorf("kind %q requires a %q object", req.Kind, req.Kind)
		}
		key, run, err = s.buildSim(req.Sim)
	case "fleet":
		if req.Fleet == nil {
			return nil, fmt.Errorf("kind %q requires a %q object", req.Kind, req.Kind)
		}
		key, run, err = s.buildFleet(req.Fleet)
	default:
		return nil, fmt.Errorf("unknown kind %q (want \"experiment\", \"sim\", or \"fleet\")", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	ctx := context.WithoutCancel(reqCtx)
	var cancel context.CancelFunc = func() {}
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	return &job{
		id:     jobID(key),
		key:    key,
		kind:   req.Kind,
		ctx:    ctx,
		cancel: cancel,
		run:    run,
		status: StatusQueued,
	}, nil
}

// Size limits on the scales and configs of experiment and sim jobs. The
// working set is osf × (t1 + t2) pages, and a kernel allocates one
// record per warp, so unbounded client JSON could ask a worker for
// gigabytes. The limits sit far above every committed workload (the
// defaults are T1 1024, T2 4096, OSF 2 and 256 warps).
//
// A sim job's sampling and prefetch knobs are bounded too, because the
// buffers they grow live in the worker's pooled runner after the job:
//   - PrefetchDegree ≤ 64, 16× the extension study's 4. Each demand
//     fill queues up to this many prefetch reads, and their fetch
//     records stay in the runner's pools.
//   - SampleTarget ≤ 2^20, about 52× the paper's 20000. The reuse
//     sampler's distance tracker grows with every access it observes
//     before reaching the target, and the runner keeps it.
//   - SampleBatch ≤ 2^20, the target's bound (the paper's batch is
//     4000): a batch beyond the target publishes only at the target.
//   - HistorySample is 0 (off) or in [64, 2^24]. The warmup study's
//     smallest interval is len(trace)/30, 136 on MultiVectorAdd at
//     quick scale; the floor caps a job at one snapshot per 64
//     accesses, and the runner keeps the snapshot buffer. A longer
//     interval only records fewer snapshots, so the 2^24 ceiling, far
//     above warmup's intervals (a few thousand accesses at default
//     scale), only gives the field a stated range.
//
// Negative values are refused rather than read as zero.
const (
	maxTierPages       = 1 << 16
	maxOversubscribe   = 64
	maxWorkingSetPages = 1 << 18
	maxWarps           = 1 << 16
	maxPrefetchDegree  = 64
	maxSampleTarget    = 1 << 20
	maxSampleBatch     = 1 << 20
	minHistorySample   = 64
	maxHistorySample   = 1 << 24
)

// checkScale rejects a dataset scale outside the job size limits,
// including a non-finite or non-positive oversubscription factor.
func checkScale(t1, t2 int, osf float64) error {
	switch {
	case t1 < 0 || t2 < 0 || t1 > maxTierPages || t2 > maxTierPages:
		return fmt.Errorf("scale: tier sizes must be in [0, %d] pages (got t1=%d, t2=%d)", maxTierPages, t1, t2)
	case math.IsNaN(osf) || math.IsInf(osf, 0) || osf <= 0 || osf > maxOversubscribe:
		return fmt.Errorf("scale: osf must be in (0, %d] (got %g)", maxOversubscribe, osf)
	case osf*float64(t1+t2) > maxWorkingSetPages:
		return fmt.Errorf("scale: working set osf × (t1 + t2) = %g pages exceeds the limit of %d",
			osf*float64(t1+t2), maxWorkingSetPages)
	}
	return nil
}

// checkKnobs rejects a sim config whose prefetch or sampling knobs are
// negative or outside the job size limits.
func checkKnobs(cfg gmt.Config) error {
	switch {
	case cfg.PrefetchDegree < 0 || cfg.PrefetchDegree > maxPrefetchDegree:
		return fmt.Errorf("invalid config: PrefetchDegree must be in [0, %d] (got %d)", maxPrefetchDegree, cfg.PrefetchDegree)
	case cfg.SampleTarget < 0 || cfg.SampleTarget > maxSampleTarget:
		return fmt.Errorf("invalid config: SampleTarget must be in [0, %d] (got %d)", maxSampleTarget, cfg.SampleTarget)
	case cfg.SampleBatch < 0 || cfg.SampleBatch > maxSampleBatch:
		return fmt.Errorf("invalid config: SampleBatch must be in [0, %d] (got %d)", maxSampleBatch, cfg.SampleBatch)
	case cfg.HistorySample != 0 && (cfg.HistorySample < minHistorySample || cfg.HistorySample > maxHistorySample):
		return fmt.Errorf("invalid config: HistorySample must be 0 or in [%d, %d] (got %d)",
			minHistorySample, maxHistorySample, cfg.HistorySample)
	}
	return nil
}

// buildExperiment resolves an experiment request exactly the way
// gmtbench resolves its flags, so equal inputs produce equal bytes.
func (s *Server) buildExperiment(req *ExperimentRequest) (string, func(context.Context) ([]byte, error), error) {
	name := req.Name
	if !exp.KnownExperiment(name) {
		return "", nil, fmt.Errorf("unknown experiment %q; choose from %v", name, exp.ExperimentNames)
	}
	scale := workload.DefaultScale()
	if req.Tier1Pages > 0 {
		scale.Tier1Pages = req.Tier1Pages
	}
	if req.Tier2Pages > 0 {
		scale.Tier2Pages = req.Tier2Pages
	}
	if req.Oversubscription > 0 {
		scale.Oversubscription = req.Oversubscription
	}
	if req.Quick {
		scale.Tier1Pages /= 4
		scale.Tier2Pages /= 4
	}
	if err := checkScale(scale.Tier1Pages, scale.Tier2Pages, scale.Oversubscription); err != nil {
		return "", nil, err
	}
	// No paper scale has an empty tier. Quick quarters the tiers after
	// the defaults fill in, so a quick t1 or t2 below 4 would reach the
	// runtime as 0 pages and fail the job after admission.
	if scale.Tier1Pages < 1 || scale.Tier2Pages < 1 {
		return "", nil, fmt.Errorf("scale: experiment tiers must be >= 1 page after quick quartering (got t1=%d, t2=%d)",
			scale.Tier1Pages, scale.Tier2Pages)
	}
	scale.DatasetSeed = req.DatasetSeed
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	// The cache key is the suite's own memo fingerprint (Seed, GPU,
	// Scale) plus the experiment name: a daemon cache hit is exactly a
	// suite memo hit one level up.
	suite := s.suiteFor(scale, seed)
	key := "exp|" + name + "|" + suite.Fingerprint()
	run := func(ctx context.Context) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if exp.NeedsSuite(name) {
			if _, err := exp.Prewarm(ctx, suite, []string{name}, s.opts.JobParallelism, s.opts.Clock); err != nil {
				return nil, err
			}
		}
		rows, _, ok := exp.RunExperiment(func() *exp.Suite { return suite }, name, nil)
		if !ok {
			return nil, fmt.Errorf("experiment %q vanished from the registry", name)
		}
		var buf bytes.Buffer
		if err := exp.EncodeExperiment(&buf, name, rows); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return key, run, nil
}

// buildSim resolves a single-run request. The app name is matched at
// submit time (unknown apps are a 400, not a failed job); the workload
// and its trace come from the scale's data root inside the job, so each
// dataset and trace is generated once per scale, not once per job.
func (s *Server) buildSim(req *SimRequest) (string, func(context.Context) ([]byte, error), error) {
	scale := gmt.DefaultScale()
	if req.Scale != nil {
		scale = *req.Scale
	}
	cfg := gmt.DefaultConfig()
	if req.Config != nil {
		cfg = *req.Config
		// A partial config is the normal case over JSON; zero platform
		// fields inherit the request's scale and the paper defaults.
		// Without this, a config that only names a policy reaches
		// gmt.Run with Tier1Pages == 0, and the resulting panic takes
		// the worker — and the daemon — down.
		def := gmt.DefaultConfig()
		if cfg.Tier1Pages == 0 {
			cfg.Tier1Pages = scale.Tier1Pages
		}
		if cfg.Tier2Pages == 0 {
			cfg.Tier2Pages = scale.Tier2Pages
		}
		if cfg.Warps == 0 {
			cfg.Warps = def.Warps
		}
		if cfg.ComputePerAccess == 0 {
			cfg.ComputePerAccess = def.ComputePerAccess
		}
		if cfg.Seed == 0 {
			cfg.Seed = def.Seed
		}
	}
	if err := checkScale(scale.Tier1Pages, scale.Tier2Pages, scale.Oversubscription); err != nil {
		return "", nil, err
	}
	if cfg.Tier1Pages < 1 || cfg.Warps < 1 ||
		(cfg.Tier2Pages < 1 && cfg.Policy != gmt.BaM) {
		return "", nil, fmt.Errorf(
			"invalid config: Tier1Pages and Warps must be >= 1, Tier2Pages >= 1 for 3-tier policies (got %d, %d, %d)",
			cfg.Tier1Pages, cfg.Tier2Pages, cfg.Warps)
	}
	if cfg.Tier1Pages > maxTierPages || cfg.Tier2Pages > maxTierPages || cfg.Warps > maxWarps {
		return "", nil, fmt.Errorf(
			"invalid config: Tier1Pages and Tier2Pages must be <= %d, Warps <= %d (got %d, %d, %d)",
			maxTierPages, maxWarps, cfg.Tier1Pages, cfg.Tier2Pages, cfg.Warps)
	}
	if err := checkKnobs(cfg); err != nil {
		return "", nil, err
	}
	var app string
	names := append(gmt.WorkloadNames(), workload.KVServeName)
	for _, name := range names {
		if strings.EqualFold(name, req.App) {
			app = name
			break
		}
	}
	if app == "" {
		return "", nil, fmt.Errorf("unknown app %q; choose from %v", req.App, names)
	}
	// gmt.Run panics on an unknown Tier-2 policy name; validate here so
	// a typo is a 400 at submit, not a failed job.
	if cfg.Tier2Policy != "" {
		if _, err := tier.ParseStorePolicy(cfg.Tier2Policy); err != nil {
			return "", nil, err
		}
	}
	// The key leaves out what the run never reads, so configs that
	// simulate identically share one execution. Only Random's coin and
	// Reuse's sampling coin draw from the seeded stream; HMM draws only
	// under a forced hit rate, which a sim job cannot set. BaM has no
	// Tier-2, as core.Canonical says. The root TestSeedBlindPolicies
	// pins this table.
	kcfg := cfg
	switch cfg.Policy {
	case gmt.BaM:
		kcfg.Seed, kcfg.Tier2Pages = 0, 0
	case gmt.TierOrder, gmt.Oracle, gmt.HMM:
		kcfg.Seed = 0
	}
	key := fmt.Sprintf("sim|%s|t1=%d,t2=%d,osf=%g,dseed=%d|%s",
		app, scale.Tier1Pages, scale.Tier2Pages, scale.Oversubscription, scale.DatasetSeed,
		kcfg.Fingerprint())
	run := func(ctx context.Context) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The data root supplies the workload and its memoized trace,
		// which a pooled runner reads in place; the run is exactly
		// gmt.Run's on a fresh workload.
		s.mu.Lock()
		root := s.dataRootLocked(workload.Scale(scale))
		s.mu.Unlock()
		var w workload.Workload
		if app == workload.KVServeName {
			w = root.KVApp()
		}
		for _, cand := range root.Apps() {
			if cand.Name() == app {
				w = cand
			}
		}
		r := s.acquireRunner()
		res := r.RunTrace(cfg, app, root.Trace(w))
		s.mu.Lock()
		s.met.simRuns++
		s.releaseRunnerLocked(r)
		s.mu.Unlock()
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		return append(data, '\n'), nil
	}
	return key, run, nil
}

// buildFleet resolves a fleet request through the same Options path as
// cmd/gmtfleet, so a served fleet result is byte-equal to the CLI's
// -json output. A bad spec (unknown template, router, or policy) is a
// 400 at submit.
func (s *Server) buildFleet(req *FleetRequest) (string, func(context.Context) ([]byte, error), error) {
	cfg, err := fleet.FromOptions(fleet.Options{
		Nodes:       req.Nodes,
		Templates:   req.Templates,
		Router:      req.Router,
		Requests:    req.Requests,
		Rate:        req.Rate,
		Seed:        req.Seed,
		Tier2Policy: req.Tier2Policy,
	})
	if err != nil {
		return "", nil, err
	}
	// The resolved config captures everything the result depends on.
	key := fmt.Sprintf("fleet|%+v", cfg)
	run := func(ctx context.Context) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, _, err := fleet.Run(ctx, cfg, s.opts.JobParallelism, s.opts.Clock)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := fleet.EncodeResult(&buf, res); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return key, run, nil
}

// handleSubmit is POST /v1/jobs: admission control. In order, a
// submission is (1) collapsed onto an identical finished or in-flight
// job — the content-addressed cache and singleflight path, (2) rejected
// with 503 while draining, (3) rejected with 429 + Retry-After when the
// queue is full, or (4) admitted.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	j, err := s.buildJob(r.Context(), &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	s.met.submitted++
	if existing, ok := s.byKey[j.key]; ok && existing.status != StatusFailed {
		// Served from cache (done) or collapsed onto the identical
		// in-flight job (queued/running): no new execution either way.
		if existing.status == StatusDone {
			s.met.cacheHits++
		} else {
			s.met.joins++
		}
		view := existing.statusView()
		view.Cached = true
		s.mu.Unlock()
		j.cancel()
		writeJSON(w, http.StatusOK, view)
		return
	}
	if s.draining {
		s.met.rejectedDraining++
		s.mu.Unlock()
		j.cancel()
		writeError(w, http.StatusServiceUnavailable, "draining: not admitting new jobs")
		return
	}
	select {
	case s.queue <- j:
	default:
		s.met.rejectedFull++
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		j.cancel()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		writeError(w, http.StatusTooManyRequests,
			"queue full (%d jobs); retry in ~%ds", s.opts.QueueDepth, retry)
		return
	}
	s.met.cacheMisses++
	j.submittedNS = s.opts.Clock()
	// A failed predecessor with the same key is superseded: the fresh
	// attempt takes over the id.
	s.jobs[j.id] = j
	s.byKey[j.key] = j
	view := j.statusView()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, view)
}

// retryAfterLocked estimates seconds until a queue slot frees up:
// admitted work divided by workers, at the observed per-job latency.
// Called with s.mu held.
func (s *Server) retryAfterLocked() int64 {
	pending := int64(len(s.queue)) + int64(s.inflight)
	est := int64(s.met.ewmaNS() * float64(pending) / float64(s.opts.Workers) / 1e9)
	if est < 1 {
		return 1
	}
	if est > 60 {
		return 60
	}
	return est
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var view JobStatus
	if ok {
		view = j.statusView()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleResult is GET /v1/jobs/{id}/result: the raw result payload —
// for experiment jobs, the exact bytes `gmtbench -json <name>` prints.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var status Status
	var payload []byte
	var jerr string
	if ok {
		status, payload, jerr = j.status, j.payload, j.err
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	case status == StatusFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", jerr)
	case status != StatusDone:
		writeError(w, http.StatusAccepted, "job is %s; poll /v1/jobs/%s", status, r.PathValue("id"))
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload) // the canonical bytes; any wrapping would break the diff contract
	}
}

// handleHealthz is GET /healthz: 200 while serving, 503 once draining
// (load balancers stop routing, pollers keep working).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	body := map[string]interface{}{
		"status":   "ok",
		"queued":   len(s.queue),
		"inflight": s.inflight,
	}
	s.mu.Unlock()
	code := http.StatusOK
	if draining {
		body["status"] = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}
