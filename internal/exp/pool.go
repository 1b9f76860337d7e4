package exp

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file is the concurrency boundary of the repository: goroutines
// exist here (and nowhere below). Each job owns a private sim.Engine —
// the simulator packages stay single-goroutine — and only the Suite
// memo is shared, under its lock. Because jobs merely fill the memo and
// rendering replays the same sequential reads afterwards, output is
// byte-identical to a sequential run regardless of worker count or
// scheduling order.

// Report summarizes a Prewarm invocation.
type Report struct {
	Workers     int
	JobsPlanned int
	Sims        int64 // simulations/traces executed by prewarm jobs
	CacheHits   int64 // memo hits observed during prewarm
	WallNS      int64 // end-to-end prewarm wall time

	// WorkerBusyNS is each worker's summed job time across all phases
	// (len == Workers). A skewed profile means a long-tail job pinned one
	// worker while the rest idled — the pool-utilization signal gmtbench
	// prints as its "worker busy" line.
	WorkerBusyNS []int64
}

// Prewarm plans the requested experiments (see Plan) and executes the
// jobs on a pool of workers, phase by phase. The clock is injected by
// the caller because everything outside cmd/ is banned from reading
// wall time (cmd/gmtbench passes a monotonic nanosecond clock); a nil
// clock leaves all timings zero. A job panic is re-raised here after
// the pool drains.
//
// Cancelling ctx stops the pool at job granularity: workers observe the
// cancellation before claiming their next job (an in-progress
// simulation always runs to completion — the simulator packages are
// single-goroutine and uninterruptible by design), remaining jobs and
// phases are skipped, and Prewarm returns ctx.Err(). A cancelled
// prewarm leaves the suite memo consistent — every committed result is
// complete — so the same suite can be prewarmed again or rendered
// directly afterwards.
//
//gmt:blocking
func Prewarm(ctx context.Context, s *Suite, experiments []string, workers int, clock func() int64) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	rep := Report{Workers: workers, WorkerBusyNS: make([]int64, workers)}
	sims0, hits0 := s.Counters()
	start := clock()
	var err error
	for _, ph := range Plan(s, experiments) {
		if err = ctx.Err(); err != nil {
			break
		}
		jobs := ph.Jobs
		if ph.More != nil {
			jobs = append(jobs, ph.More()...)
		}
		if len(jobs) == 0 {
			continue
		}
		rep.JobsPlanned += len(jobs)
		if _, err = runJobs(ctx, jobs, workers, clock, rep.WorkerBusyNS); err != nil {
			break
		}
	}
	rep.WallNS = clock() - start
	sims1, hits1 := s.Counters()
	rep.Sims, rep.CacheHits = sims1-sims0, hits1-hits0
	return rep, err
}

// PoolReport summarizes one RunJobs invocation: the summed per-job busy
// time and each worker's share of it. It is pool telemetry (wall time),
// deliberately separate from simulation results so deterministic
// outputs never embed it.
type PoolReport struct {
	Workers      int
	BusyNS       int64
	WorkerBusyNS []int64
}

// RunJobs executes an ad-hoc job list on the worker pool — the entry
// point for callers outside this package (internal/fleet fans per-node
// simulations out through it) that plan their own jobs rather than
// going through Suite/Plan. The determinism contract is the caller's:
// jobs must write results into caller-owned slots keyed by job index so
// output is independent of completion order. The clock is injected for
// the same reason as Prewarm's; nil leaves timings zero. Cancellation
// and panic semantics match Prewarm.
//
//gmt:blocking
func RunJobs(ctx context.Context, jobs []Job, workers int, clock func() int64) (PoolReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	rep := PoolReport{Workers: workers, WorkerBusyNS: make([]int64, workers)}
	busy, err := runJobs(ctx, jobs, workers, clock, rep.WorkerBusyNS)
	rep.BusyNS = busy
	return rep, err
}

// runJobs drains the job list on a bounded worker pool and returns the
// summed per-job busy time; each worker additionally accumulates its own
// job time into workerBusy[i] (workers beyond len(jobs) never start and
// stay at their prior value). The first job panic is captured and
// re-raised after all workers exit, so a failed simulation surfaces the
// same way it would sequentially. Workers check ctx before claiming
// each job; on cancellation the remaining jobs are skipped, already
// started jobs finish, and ctx.Err() is returned after the pool drains.
func runJobs(ctx context.Context, jobs []Job, workers int, clock func() int64, workerBusy []int64) (int64, error) {
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next, busy int64
	panics := make(chan interface{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			for ctx.Err() == nil {
				n := atomic.AddInt64(&next, 1) - 1
				if n >= int64(len(jobs)) {
					return
				}
				t0 := clock()
				jobs[n].Run()
				d := clock() - t0
				atomic.AddInt64(&busy, d)
				if workerBusy != nil {
					// Worker i is the only writer of workerBusy[i]; the
					// caller reads after wg.Wait establishes the ordering.
					workerBusy[i] += d
				}
			}
		}()
	}
	wg.Wait()
	close(panics)
	if r := <-panics; r != nil {
		panic(r)
	}
	return atomic.LoadInt64(&busy), ctx.Err()
}
