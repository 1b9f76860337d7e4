package main

import "testing"

// TestWorkerFairness pins the human-readable pool-fairness line: skew
// is max/min across workers, idle workers are called out instead of a
// divide-by-zero skew, and single-worker pools print nothing.
func TestWorkerFairness(t *testing.T) {
	if got := workerFairness(nil); got != "" {
		t.Errorf("nil profile: got %q, want empty", got)
	}
	if got := workerFairness([]int64{5e6}); got != "" {
		t.Errorf("single worker: got %q, want empty", got)
	}
	got := workerFairness([]int64{10e6, 45e6})
	if want := "  worker busy: 10ms 45ms (skew 4.50x)"; got != want {
		t.Errorf("skew line = %q, want %q", got, want)
	}
	got = workerFairness([]int64{10e6, 0})
	if want := "  worker busy: 10ms 0s (idle worker)"; got != want {
		t.Errorf("idle line = %q, want %q", got, want)
	}
}
