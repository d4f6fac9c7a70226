package experiments

import "testing"

// TestParallelDeterminism is the determinism contract for the trial engine:
// every table must be byte-identical no matter how many workers run the
// trials, because each trial's RNG stream is derived from (seed, path) and
// results are collected by trial index, never completion order.
func TestParallelDeterminism(t *testing.T) {
	registry := Registry()
	for _, id := range pinnedIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) string {
				cfg := tinyConfig
				cfg.Workers = workers
				table, err := registry[id](cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return table.CSV()
			}
			seq := run(1)
			par := run(8)
			if seq != par {
				t.Errorf("%s: workers=1 and workers=8 disagree\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", id, seq, par)
			}
		})
	}
}
