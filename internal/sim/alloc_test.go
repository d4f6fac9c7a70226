package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"reco/internal/core"
	"reco/internal/faults"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
)

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// faultedRun is a dense n-port coflow, its Reco-Sin plan and a fault
// schedule under which Recover replans many times: half the ports fail
// inside the clean run and come back after half of it, and one
// establishment in ten fails to set up.
func faultedRun(t testing.TB, n int) (*matrix.Matrix, ocs.CircuitSchedule, *faults.Schedule) {
	const delta = 100
	d := randomDemand(rand.New(rand.NewSource(int64(n))), n, 0.6)
	cs, err := core.RecoSin(d, delta)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ocs.ExecAllStop(d, cs, delta)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := faults.Generate(faults.GenConfig{
		N: n, Seed: 9, Horizon: clean.CCT, PortFailRate: 0.5,
		RepairAfter: clean.CCT / 2, SetupFailProb: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, cs, fs
}

// TestRecoverAllocs holds one Recover run under faults on a dense n = 96
// coflow, keeping neither flows nor log, to a TotalAlloc budget: what its
// own Reco-Sin plans carry plus O(n) per decision, and nothing n² per
// replan. Each replan's residual copy, and the residual each of its two
// cost estimates runs on, come from the matrix pool; taking them fresh
// cost 3·n²·8 bytes (221 KB at n = 96) per replan, 1.87 MB on this run
// against the 0.23 MB measured without (budget measured + ~25%). It is
// skipped under -race, whose sync.Pool drops at random.
func TestRecoverAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under -race measure the detector's sync.Pool")
	}
	const n, delta, budget = 96, 100, 290_000
	d, _, fs := faultedRun(t, n)
	sw := ocs.Core{Delta: delta, Bandwidth: 1, Faults: fs}
	run := func() {
		if _, err := sw.Run(d, NewRecover(delta)); err != nil {
			t.Fatal(err)
		}
	}
	// One P, as testing.AllocsPerRun runs: a pooled matrix put back on one
	// P is not found from another's private slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes (budget %d)", got, budget)
	if got > budget {
		t.Errorf("a faulted Recover run allocated %d bytes, budget %d", got, budget)
	}
}

// TestRunKeepsWhatTheCoreAsks: Run on a core that keeps neither flows nor
// log returns, under faults, everything RunFaults returns but those two,
// and publishes the same counters.
func TestRunKeepsWhatTheCoreAsks(t *testing.T) {
	t.Cleanup(obs.Detach)
	const delta = 100
	d, cs, fs := faultedRun(t, 24)
	for _, ctrl := range []func() ocs.Controller{
		func() ocs.Controller { return NewReplayLoop(cs) },
		func() ocs.Controller { return NewRecover(delta) },
	} {
		var counters [2]map[string]int64
		var results [2]*ocs.Result
		for k, run := range []func() (*ocs.Result, error){
			func() (*ocs.Result, error) { return RunFaults(d, ctrl(), delta, fs) },
			func() (*ocs.Result, error) {
				return Run(ocs.Core{Delta: delta, Bandwidth: 1, Faults: fs}, d, ctrl())
			},
		} {
			reg := obs.NewRegistry()
			obs.Attach(&obs.Sink{Metrics: reg})
			res, err := run()
			obs.Detach()
			if err != nil {
				t.Fatal(err)
			}
			counters[k], results[k] = map[string]int64{}, res
			for _, name := range []string{"sim_runs_total", "sim_establishments_total", "sim_setup_failures_total",
				"sim_conf_ticks_total", "sim_drained_ticks_total", "sim_waits_total", "sim_wait_ticks_total"} {
				counters[k][name] = reg.Counter(name).Value()
			}
		}
		full, bare := results[0], results[1]
		if bare.Flows != nil || bare.Log != nil {
			t.Fatalf("a bare core kept %d flows and %d log entries", len(bare.Flows), len(bare.Log))
		}
		if len(full.Flows) == 0 || len(full.Log) == 0 {
			t.Fatal("RunFaults kept no flows or no log")
		}
		full.Flows, full.Log = nil, nil
		if !reflect.DeepEqual(full, bare) {
			t.Errorf("the bare run differs beyond flows and log:\n%+v\n%+v", full, bare)
		}
		if !reflect.DeepEqual(counters[0], counters[1]) {
			t.Errorf("counters %v with flows, %v without", counters[0], counters[1])
		}
	}
}
