package experiments

import (
	"runtime"
	"testing"
)

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// suiteIDs are the tables the repository benchmark's exp_suite workload
// regenerates (bench/suite.go).
var suiteIDs = []string{"fig5b", "fig7", "fig8", "faults", "kcore"}

// suiteConfigs are the scales BenchmarkSuiteTables runs the suite at:
// "small", the scale the repository benchmark warms its pools at, and
// "full", the configuration exp_suite regenerates results/ with.
var suiteConfigs = []struct {
	name string
	cfg  Config
}{
	{"small", Config{Seed: 1, Workers: 2, SingleN: 24, SingleCoflows: 48, MulN: 16, MulCoflows: 6, MulBatches: 1}},
	{"full", Config{Seed: 1, Workers: 2}},
}

// BenchmarkSuiteTables regenerates the suite's tables, allocations
// reported: per scale one sub-benchmark for the whole pass, and at the
// small scale one per table, which says which table a memory change moved.
// `-bench 'SuiteTables/full' -benchtime 3x -memprofile mem.out` is the
// in-process memory profile of exp_suite's pass.
func BenchmarkSuiteTables(b *testing.B) {
	reg := Registry()
	run := func(b *testing.B, cfg Config, ids ...string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if _, err := reg[id](cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, sc := range suiteConfigs {
		b.Run(sc.name+"/pass", func(b *testing.B) { run(b, sc.cfg, suiteIDs...) })
		if sc.name != "small" {
			continue
		}
		for _, id := range suiteIDs {
			b.Run(sc.name+"/"+id, func(b *testing.B) { run(b, sc.cfg, id) })
		}
	}
}

// TestSuiteTablesBytes holds one pass of the five suite tables at
// tinyConfig, on one worker and one P, to a TotalAlloc budget (measured +
// ~25%). It is the guard on the tables asking for nothing they do not read:
// flow lists from the multi-coflow schedulers and the K-core executor,
// flows and logs from the fault grid, fresh residual copies per replan and
// a fresh random source per port took the same pass to 59.5 MB against
// the 14.0 MB measured without. It is
// skipped under -race, whose sync.Pool drops at random.
func TestSuiteTablesBytes(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under -race measure the detector's sync.Pool")
	}
	const budget = 17_500_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := tinyConfig
	cfg.Workers = 1
	reg := Registry()
	pass := func() {
		for _, id := range suiteIDs {
			if _, err := reg[id](cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes, %d allocations (budget %d bytes)", got, after.Mallocs-before.Mallocs, budget)
	if got > budget {
		t.Errorf("one pass of the suite tables allocated %d bytes, budget %d", got, budget)
	}
}
