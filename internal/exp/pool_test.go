package exp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/gmtsim/gmt/internal/workload"
)

// TestRunJobsObservesCancellation: cancelling the context mid-run stops
// workers at job granularity — jobs claimed after the cancel never run —
// and runJobs reports the context error after the pool drains.
func TestRunJobsObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int64
	jobs := make([]Job, 100)
	for i := range jobs {
		i := i
		jobs[i] = Job{Key: fmt.Sprintf("job%d", i), Run: func() {
			if i == 0 {
				cancel()
			}
			atomic.AddInt64(&ran, 1)
		}}
	}
	_, err := runJobs(ctx, jobs, 2, func() int64 { return 0 }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runJobs error = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&ran); n >= int64(len(jobs)) {
		t.Fatalf("all %d jobs ran despite cancellation", n)
	}
}

// TestRunJobsWorkerBusyAccounting: the per-worker busy slice partitions
// the pool's total busy time — each worker's jobs land in its own slot,
// and the slots sum to exactly the aggregate runJobs returns.
func TestRunJobsWorkerBusyAccounting(t *testing.T) {
	var ticks int64
	clock := func() int64 { return atomic.AddInt64(&ticks, 1) }
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("job%d", i), Run: func() {}}
	}
	workerBusy := make([]int64, 3)
	busy, err := runJobs(context.Background(), jobs, 3, clock, workerBusy)
	if err != nil {
		t.Fatalf("runJobs error = %v", err)
	}
	if busy <= 0 {
		t.Fatalf("busy = %d, want > 0 under a ticking clock", busy)
	}
	var sum int64
	for _, b := range workerBusy {
		if b < 0 {
			t.Fatalf("negative per-worker busy time: %v", workerBusy)
		}
		sum += b
	}
	if sum != busy {
		t.Fatalf("per-worker busy sums to %d, aggregate is %d", sum, busy)
	}
}

// TestPrewarmWorkerBusyLen: Prewarm sizes WorkerBusyNS to the requested
// worker count even when phases cap the pool below it.
func TestPrewarmWorkerBusyLen(t *testing.T) {
	scale := workload.Scale{Tier1Pages: 128, Tier2Pages: 512, Oversubscription: 2}
	s := NewSuite(scale)
	rep, err := Prewarm(context.Background(), s, []string{"fig8"}, 4, nil)
	if err != nil {
		t.Fatalf("Prewarm error = %v", err)
	}
	if len(rep.WorkerBusyNS) != 4 {
		t.Fatalf("WorkerBusyNS has %d slots, want 4", len(rep.WorkerBusyNS))
	}
}

// TestPrewarmCancelledPoolReusable is the cancellation regression gate:
// a cancelled Prewarm returns promptly with the context error, and the
// same suite then supports a fresh Prewarm plus rendering whose output
// is byte-identical to a never-cancelled sequential run — a cancelled
// pool leaves no half-committed memo state behind.
func TestPrewarmCancelledPoolReusable(t *testing.T) {
	scale := workload.Scale{Tier1Pages: 128, Tier2Pages: 512, Oversubscription: 2}

	sequential := func() string {
		s := NewSuite(scale)
		rows, tbl := Figure8(s)
		return tbl.Render() + fmt.Sprintf("%#v", rows)
	}()

	s := NewSuite(scale)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the pool must not execute anything new
	rep, err := Prewarm(ctx, s, []string{"fig8"}, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Prewarm error = %v, want context.Canceled", err)
	}
	if rep.Sims != 0 {
		t.Fatalf("cancelled-before-start Prewarm executed %d simulations", rep.Sims)
	}

	// The pool is per-call state: a fresh context on the same suite must
	// complete normally...
	rep2, err := Prewarm(context.Background(), s, []string{"fig8"}, 2, nil)
	if err != nil {
		t.Fatalf("second Prewarm on the same suite failed: %v", err)
	}
	if rep2.JobsPlanned == 0 || rep2.Sims == 0 {
		t.Fatalf("second Prewarm did nothing: %+v", rep2)
	}
	// ...and rendering must match the sequential baseline byte for byte.
	rows, tbl := Figure8(s)
	if got := tbl.Render() + fmt.Sprintf("%#v", rows); got != sequential {
		t.Fatal("rendering after a cancelled+retried prewarm diverged from the sequential run")
	}
}
