package parallel

import (
	"testing"

	"reco/internal/obs"
)

// TestForEachInstrumented: with a sink attached, the pool publishes trial
// counts, per-worker timings, and a queue-depth gauge that returns to zero
// — and still visits every trial exactly once.
func TestForEachInstrumented(t *testing.T) {
	obs.Detach()
	t.Cleanup(obs.Detach)
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg, Trace: obs.NewTracerCap(0)})

	const n = 100
	visited := make([]int, n)
	if err := ForEach(4, n, func(i int) error {
		visited[i]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("trial %d visited %d times", i, v)
		}
	}
	if got := reg.Counter("parallel_trials_total").Value(); got != n {
		t.Errorf("parallel_trials_total = %d, want %d", got, n)
	}
	if got := reg.Gauge("parallel_inflight").Value(); got != 0 {
		t.Errorf("parallel_inflight = %v, want 0 after completion", got)
	}
	if got := reg.Histogram("parallel_trial_seconds", nil).Count(); got != n {
		t.Errorf("parallel_trial_seconds count = %d, want %d", got, n)
	}
	if got := reg.Gauge("parallel_workers").Value(); got != 4 {
		t.Errorf("parallel_workers = %v, want 4", got)
	}
}
