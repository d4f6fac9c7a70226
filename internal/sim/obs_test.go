package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"reco/internal/core"
	"reco/internal/faults"
	"reco/internal/obs"
	"reco/internal/ocs"
)

// TestInstrumentationIsInvisible is the differential test the observability
// tentpole demands: RunFaults with a full sink attached (metrics registry
// and tracer) must produce results deeply identical — CCT, establishment
// log, flow intervals, fault records — to the same run with no sink. The
// sweep covers clean runs, replay under faults, and the recovery
// controller.
func TestInstrumentationIsInvisible(t *testing.T) {
	obs.Detach()
	t.Cleanup(obs.Detach)
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(6)
		delta := int64(10 + rng.Intn(90))
		d := randomDemand(rng, n, 0.6)
		cs, err := core.RecoSin(d, delta)
		if err != nil {
			t.Fatalf("trial %d: schedule: %v", trial, err)
		}
		fs, err := faults.Generate(faults.GenConfig{
			N: n, Seed: int64(trial + 1), Horizon: 20 * delta,
			PortFailRate: 0.3, RepairAfter: 5 * delta,
			SetupFailProb: 0.1, JitterBound: delta / 4,
		})
		if err != nil {
			t.Fatalf("trial %d: faults: %v", trial, err)
		}

		type variant struct {
			name string
			run  func() (*ocs.Result, error)
		}
		variants := []variant{
			{"clean", func() (*ocs.Result, error) { return RunFaults(d, NewReplay(cs), delta, nil) }},
			{"replay-faulted", func() (*ocs.Result, error) { return RunFaults(d, NewReplayLoop(cs), delta, fs) }},
			{"recover-faulted", func() (*ocs.Result, error) {
				replay, err := RunFaults(d, NewReplayLoop(cs), delta, fs)
				if err != nil {
					replay = nil
				}
				return RunPredictive(ocs.Core{Delta: delta, Bandwidth: 1, Faults: fs, Flows: true, Log: true}, d, replay)
			}},
		}
		for _, v := range variants {
			obs.Detach()
			plain, plainErr := v.run()

			sink := &obs.Sink{Metrics: obs.NewRegistry(), Trace: obs.NewTracerCap(0)}
			obs.Attach(sink)
			instr, instrErr := v.run()
			obs.Detach()

			if (plainErr == nil) != (instrErr == nil) {
				t.Fatalf("trial %d %s: error divergence: %v vs %v", trial, v.name, plainErr, instrErr)
			}
			if plainErr != nil && plainErr.Error() != instrErr.Error() {
				t.Fatalf("trial %d %s: error text divergence: %v vs %v", trial, v.name, plainErr, instrErr)
			}
			if !reflect.DeepEqual(plain, instr) {
				t.Fatalf("trial %d %s: instrumented result differs:\nplain: %+v\ninstr: %+v", trial, v.name, plain, instr)
			}
			if plainErr == nil && sink.Trace.Len() == 0 {
				t.Errorf("trial %d %s: tracer recorded nothing", trial, v.name)
			}
		}
	}
}

// TestSimCountersMatchResult checks the registry aggregates published by a
// run against the ocs.Result it returns.
func TestSimCountersMatchResult(t *testing.T) {
	obs.Detach()
	t.Cleanup(obs.Detach)
	rng := rand.New(rand.NewSource(7))
	d := randomDemand(rng, 5, 0.7)
	delta := int64(50)
	cs, err := core.RecoSin(d, delta)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	res, err := RunFaults(d, NewReplay(cs), delta, nil)
	obs.Detach()
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("sim_runs_total").Value(); got != 1 {
		t.Errorf("sim_runs_total = %d, want 1", got)
	}
	if got := reg.Counter("sim_establishments_total").Value(); got != int64(res.Reconfigs) {
		t.Errorf("sim_establishments_total = %d, want %d", got, res.Reconfigs)
	}
	if got := reg.Counter("sim_conf_ticks_total").Value(); got != res.ConfTime {
		t.Errorf("sim_conf_ticks_total = %d, want %d", got, res.ConfTime)
	}
	if got := reg.Counter("sim_drained_ticks_total").Value(); got != d.Total() {
		t.Errorf("sim_drained_ticks_total = %d, want %d (full demand)", got, d.Total())
	}
	if got := reg.Histogram("sim_cct_ticks", nil).Count(); got != 1 {
		t.Errorf("sim_cct_ticks count = %d, want 1", got)
	}
}
