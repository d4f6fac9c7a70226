package builtin

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"reco/internal/algo"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/workload"
)

const (
	confDelta int64 = 10
	confC     int64 = 4
)

// conformanceRequest draws a small seeded workload: 4 coflows on a 12-port
// fabric with the elephant floor c·δ, the regime every registered scheduler
// supports.
func conformanceRequest(t *testing.T) algo.Request {
	t.Helper()
	return conformanceDraw(t, 7)
}

// conformanceDraw is conformanceRequest's draw on another seed.
func conformanceDraw(t *testing.T, seed int64) algo.Request {
	t.Helper()
	coflows, err := workload.Generate(workload.GenConfig{
		N: 12, NumCoflows: 4, Seed: seed,
		MinDemand: confC * confDelta, MeanDemand: confC * confDelta,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	ds := make([]*matrix.Matrix, len(coflows))
	w := make([]float64, len(coflows))
	for i, c := range coflows {
		ds[i] = c.Demand
		w[i] = 1
	}
	return algo.Request{Demands: ds, Weights: w, Delta: confDelta, C: confC}
}

// TestConformance runs every registered scheduler through the same contract:
// a valid result of the right shape, a port-feasible flow schedule serving
// the full demand where the scheduler reports flow-level output, per-coflow
// circuit schedules that replay to completion where it reports them, and
// bit-identical results across two runs.
func TestConformance(t *testing.T) {
	req := conformanceRequest(t)
	n := req.Demands[0].N()
	k := len(req.Demands)
	for _, s := range algo.All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			res, err := s.Schedule(context.Background(), req)
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			if len(res.CCTs) != k {
				t.Fatalf("got %d CCTs for %d coflows", len(res.CCTs), k)
			}
			for i, cct := range res.CCTs {
				if cct <= 0 {
					t.Errorf("coflow %d: non-positive CCT %d for non-empty demand", i, cct)
				}
			}
			if res.Reconfigs < 0 {
				t.Errorf("negative reconfiguration count %d", res.Reconfigs)
			}

			if s.Caps().FlowLevel {
				if err := res.Flows.Validate(n, k); err != nil {
					t.Errorf("flow schedule invalid: %v", err)
				}
				if err := res.Flows.CheckDemand(req.Demands); err != nil {
					t.Errorf("flow schedule does not serve the demand: %v", err)
				}
				// Grouped LP-II-GB reports group completion: a coflow's CCT
				// is its group's drain instant, at or after its own last
				// flow. Everywhere else the two must agree exactly.
				flowCCTs := res.Flows.CCTs(k)
				for i := range res.CCTs {
					if s.Name() == algo.NameLPIIGBGroup {
						if res.CCTs[i] < flowCCTs[i] {
							t.Errorf("coflow %d: reported CCT %d before last flow at %d",
								i, res.CCTs[i], flowCCTs[i])
						}
						continue
					}
					if res.CCTs[i] != flowCCTs[i] {
						t.Errorf("coflow %d: reported CCT %d != flow-level CCT %d",
							i, res.CCTs[i], flowCCTs[i])
					}
				}
			}

			if res.Schedules != nil {
				if len(res.Schedules) != k {
					t.Fatalf("got %d circuit schedules for %d coflows", len(res.Schedules), k)
				}
				for i, cs := range res.Schedules {
					if _, err := ocs.ExecAllStop(req.Demands[i], cs, req.Delta); err != nil {
						t.Errorf("coflow %d: circuit schedule does not replay: %v", i, err)
					}
				}
			}

			again, err := s.Schedule(context.Background(), req)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Errorf("two runs over the same request differ")
			}
		})
	}
}

// TestSingleCoflowConformance: every scheduler accepts a one-coflow request.
func TestSingleCoflowConformance(t *testing.T) {
	full := conformanceRequest(t)
	req := algo.Request{Demands: full.Demands[:1], Delta: confDelta, C: confC}
	for _, s := range algo.All() {
		res, err := s.Schedule(context.Background(), req)
		if err != nil {
			t.Errorf("%s: %v", s.Name(), err)
			continue
		}
		if len(res.CCTs) != 1 || res.CCTs[0] <= 0 {
			t.Errorf("%s: bad single-coflow CCTs %v", s.Name(), res.CCTs)
		}
	}
}

// TestBadRequestRejected: every scheduler validates its request up front.
func TestBadRequestRejected(t *testing.T) {
	for _, s := range algo.All() {
		if _, err := s.Schedule(context.Background(), algo.Request{Delta: confDelta}); !errors.Is(err, algo.ErrBadRequest) {
			t.Errorf("%s: empty request returned %v, want ErrBadRequest", s.Name(), err)
		}
		req := conformanceRequest(t)
		req.Delta = -1
		if _, err := s.Schedule(context.Background(), req); !errors.Is(err, algo.ErrBadRequest) {
			t.Errorf("%s: negative delta returned %v, want ErrBadRequest", s.Name(), err)
		}
	}
}

// TestDeltaFloorIsBadRequest: helios slots and eclipse's throughput-per-cost
// ratio need a positive delta; delta 0 is the caller's mistake, reported as
// ErrBadRequest rather than as the scheduling package's internal error.
func TestDeltaFloorIsBadRequest(t *testing.T) {
	req := conformanceRequest(t)
	req.Delta = 0
	for _, name := range []string{algo.NameHelios, algo.NameEclipse} {
		if _, err := algo.MustGet(name).Schedule(context.Background(), req); !errors.Is(err, algo.ErrBadRequest) {
			t.Errorf("%s at delta 0 returned %v, want ErrBadRequest", name, err)
		}
	}
}

// TestCancelledContext: a cancelled request context aborts every registered
// scheduler with context.Canceled instead of running the work to completion.
func TestCancelledContext(t *testing.T) {
	req := conformanceRequest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range algo.All() {
		if _, err := s.Schedule(ctx, req); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled ctx returned %v, want context.Canceled", s.Name(), err)
		}
	}
}

// TestEverySchedulerHonorsCancel: under a 5 ms deadline every registered
// scheduler returns within a bound of it on one shared heavy input, two
// full 128-port coflows with all-different cells up to 2³⁰ at δ = 1. A
// scheduler that checks its context only between coflows returns after one
// coflow's work: hybrid-fluid did, ~250 ms here, and eclipse, checking once
// per greedy step, ~230 ms. Now the slowest is eclipse's one O(n³) matching
// per candidate duration, ~110 ms under the race detector.
func TestEverySchedulerHonorsCancel(t *testing.T) {
	const deadline, bound = 5 * time.Millisecond, 200 * time.Millisecond
	const n = 128
	rng := rand.New(rand.NewSource(1))
	ds := make([]*matrix.Matrix, 2)
	for k := range ds {
		ds[k], _ = matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ds[k].Set(i, j, 1+rng.Int63n(1<<30))
			}
		}
	}
	req := algo.Request{Demands: ds, Delta: 1, C: confC}
	for _, s := range algo.All() {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := s.Schedule(ctx, req)
		took := time.Since(start)
		cancel()
		t.Logf("%s: returned after %v", s.Name(), took)
		if took > deadline+bound {
			t.Errorf("%s: returned %v after a %v deadline, bound %v", s.Name(), took, deadline, bound)
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: %v, want nil or context.DeadlineExceeded", s.Name(), err)
		}
	}
}
