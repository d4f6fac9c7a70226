package api

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"reco/internal/algo"
)

func TestAlgorithmsEndpoint(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()

	resp, err := client.Algorithms(context.Background())
	if err != nil {
		t.Fatalf("Algorithms: %v", err)
	}
	var names []string
	for _, a := range resp.Algorithms {
		names = append(names, a.Name)
		if a.Description == "" {
			t.Errorf("%s: empty description", a.Name)
		}
	}
	if !reflect.DeepEqual(names, algo.Names()) {
		t.Fatalf("endpoint lists %v, registry has %v", names, algo.Names())
	}
	// Every capability travels: the listing is the registry's own struct.
	for _, a := range resp.Algorithms {
		if want := algo.MustGet(a.Name).Caps(); a.Capabilities != want {
			t.Errorf("%s: capabilities %+v, registry has %+v", a.Name, a.Capabilities, want)
		}
	}
}

func TestAlgorithmsMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/algorithms", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/algorithms = %d, want 405", resp.StatusCode)
	}
}

// TestScheduleSingleAlgorithmField: the historical default is reco-sin, an
// explicit "reco-sin" is byte-identical to it, and other registered
// algorithms are reachable through the same endpoint.
func TestScheduleSingleAlgorithmField(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()
	demand := [][]int64{
		{104, 109, 102},
		{103, 105, 107},
		{108, 101, 106},
	}

	def, err := client.ScheduleSingle(context.Background(), SingleRequest{Demand: demand, Delta: 100})
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	if def.CCT != 618 || def.Reconfigs != 3 || def.LowerBound != 615 {
		t.Fatalf("default = CCT %d, reconfigs %d, LB %d; want 618, 3, 615",
			def.CCT, def.Reconfigs, def.LowerBound)
	}

	explicit, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameRecoSin})
	if err != nil {
		t.Fatalf("explicit reco-sin: %v", err)
	}
	if !reflect.DeepEqual(def, explicit) {
		t.Fatalf("explicit reco-sin differs from the default:\n%+v\n%+v", explicit, def)
	}

	sol, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameSolstice})
	if err != nil {
		t.Fatalf("solstice: %v", err)
	}
	if sol.CCT <= 0 || len(sol.Schedule) == 0 {
		t.Fatalf("solstice returned CCT %d with %d assignments", sol.CCT, len(sol.Schedule))
	}
}

// TestScheduleSingleUnknownAlgorithm: a name the registry does not hold,
// made up or removed (the four online-* entries replayed other entries and
// were deleted), answers 400 with the valid names.
func TestScheduleSingleUnknownAlgorithm(t *testing.T) {
	srv, _ := newTestServer(t)
	defer srv.Close()
	for _, name := range []string{"definitely-not-real", "online-fifo", "online-sebf", "online-batch", "online-disjoint"} {
		body, _ := json.Marshal(SingleRequest{
			Demand: [][]int64{{0, 1}, {1, 0}}, Delta: 10, Algorithm: name,
		})
		resp, err := http.Post(srv.URL+"/v1/schedule/single", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr errorResponse
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if err != nil || !strings.Contains(apiErr.Error, algo.NameRecoSin) {
			t.Errorf("%s: error body %q (%v) should enumerate valid algorithm names", name, apiErr.Error, err)
		}
	}
}

// TestScheduleMultiAlgorithmField: the multi endpoint defaults to reco-mul
// and serves any registered scheduler by name.
func TestScheduleMultiAlgorithmField(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()
	demands := [][][]int64{
		{{0, 400, 0}, {0, 0, 400}, {400, 0, 0}},
		{{0, 0, 400}, {400, 0, 0}, {0, 400, 0}},
	}

	def, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4})
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	explicit, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameRecoMul})
	if err != nil {
		t.Fatalf("explicit reco-mul: %v", err)
	}
	if !reflect.DeepEqual(def, explicit) {
		t.Fatalf("explicit reco-mul differs from the default")
	}

	lp, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameLPIIGB})
	if err != nil {
		t.Fatalf("lp-ii-gb: %v", err)
	}
	if len(lp.CCTs) != len(demands) {
		t.Fatalf("lp-ii-gb returned %d CCTs for %d coflows", len(lp.CCTs), len(demands))
	}
}

// TestScheduleMultiCoresField: the cores field reaches the scheduler —
// cores 0 and 1 agree on the single switch, and a wider fabric is served.
func TestScheduleMultiCoresField(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()
	demands := [][][]int64{
		{{0, 400, 300}, {200, 0, 400}, {400, 100, 0}},
		{{0, 0, 400}, {400, 0, 0}, {0, 400, 0}},
	}

	k0, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameKCore})
	if err != nil {
		t.Fatalf("kcore cores=0: %v", err)
	}
	k1, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameKCore, Knobs: algo.Knobs{Cores: 1}})
	if err != nil {
		t.Fatalf("kcore cores=1: %v", err)
	}
	if !reflect.DeepEqual(k0, k1) {
		t.Error("cores 0 and 1 disagree on the single switch")
	}
	k2, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameKCore, Knobs: algo.Knobs{Cores: 2}})
	if err != nil {
		t.Fatalf("kcore cores=2: %v", err)
	}
	if len(k2.CCTs) != len(demands) {
		t.Fatalf("cores=2 returned %d CCTs for %d coflows", len(k2.CCTs), len(demands))
	}
}

// TestScheduleSingleElecFracField: the elec_frac knob reaches the
// hybrid-fluid scheduler — 0 means the documented default, so it matches an
// explicit 0.1.
func TestScheduleSingleElecFracField(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()
	demand := [][]int64{
		{900, 12, 0},
		{0, 850, 9},
		{14, 0, 700},
	}

	def, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameHybridFluid})
	if err != nil {
		t.Fatalf("hybrid-fluid default: %v", err)
	}
	explicit, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameHybridFluid, Knobs: algo.Knobs{ElecFrac: 0.1}})
	if err != nil {
		t.Fatalf("hybrid-fluid elec_frac=0.1: %v", err)
	}
	if !reflect.DeepEqual(def, explicit) {
		t.Error("elec_frac 0 (default) and 0.1 disagree")
	}
	half, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameHybridFluid, Knobs: algo.Knobs{ElecFrac: 0.5}})
	if err != nil {
		t.Fatalf("hybrid-fluid elec_frac=0.5: %v", err)
	}
	if half.CCT <= 0 {
		t.Fatalf("elec_frac=0.5 returned CCT %d", half.CCT)
	}
}

// dense returns an n×n demand whose every row and column sums to rho.
func dense(n int, rho int64) [][]int64 {
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
		for j := range d[i] {
			d[i][j] = rho / int64(n)
		}
	}
	return d
}

// TestRegistryUnderHostileInput posts well-formed but hostile batches to
// every registered algorithm: whatever the scheduler makes of them, the
// answer is a 200 with no negative CCT or a structured 400 — a client's
// mistake is never a 5xx.
// A newly registered scheduler is swept without an edit here.
//
// Each case is a matrix of at most 8×8, so each answer comes within
// caseDeadline and allocates at most caseAlloc bytes (the most any takes is
// ~46 KB): a scheduler whose work grows with the values rather than the
// size, unbounded, fails here instead of running the test out of time or
// memory.
func TestRegistryUnderHostileInput(t *testing.T) {
	const caseDeadline, caseAlloc = 2 * time.Second, 1 << 20
	srv := NewServer(Options{NoCache: true})
	defer srv.Close()
	h := srv.Handler()

	zero := [][]int64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	oneCell := [][]int64{{0, 0, 0}, {0, 0, 7}, {0, 0, 0}}
	for _, sched := range algo.All() {
		if strings.HasPrefix(sched.Name(), "test-") {
			continue
		}
		base := MultiRequest{Demands: [][][]int64{jobDemand, jobDemand}, Delta: 100, C: 4, Algorithm: sched.Name()}
		type hostile struct {
			name    string
			edit    func(*MultiRequest)
			must400 bool // no scheduler may accept it
		}
		cases := []hostile{
			{"delta 0", func(r *MultiRequest) { r.Delta = 0 }, false},
			{"all-zero demand", func(r *MultiRequest) { r.Demands = [][][]int64{zero, zero} }, false},
			{"one non-zero cell", func(r *MultiRequest) { r.Demands = [][][]int64{oneCell, zero} }, false},
			{"negative weight", func(r *MultiRequest) { r.Weights = []float64{-1} }, true},
			{"surplus weights", func(r *MultiRequest) { r.Weights = []float64{1, 2, 3} }, false},
			{"negative c", func(r *MultiRequest) { r.C = -1 }, true},
			// Once an endless isqrt loop on reco-mul's detached compute.
			{"c at MaxInt64", func(r *MultiRequest) { r.C = math.MaxInt64 }, true},
			// ⌊√c⌋·δ = 2^64 wrapped to 0: once a division by zero that
			// killed the process from the compute goroutine.
			{"grid wraps to zero", func(r *MultiRequest) { r.Delta, r.C = 1<<33, 1<<62 }, true},
			// A mouse of 10^18 ticks passes ValidateRequest's bound, but the
			// hybrid models' packet side runs ten times slower: once a 200
			// with a wrapped CCT (hybrid) or a 500 (hybrid-fluid).
			{"slowed mouse overflows", func(r *MultiRequest) {
				r.Demands, r.Delta = [][][]int64{{{1e18, 0}, {0, 1}}}, 3e17
			}, sched.Name() == algo.NameHybrid || sched.Name() == algo.NameHybridFluid},
			// Helios holds a slot of 4·δ from the instant circuits are up
			// at δ: once up + slot wrapped and answered a negative CCT.
			{"slot end wraps", func(r *MultiRequest) {
				r.Demands, r.Delta = [][][]int64{{{5}}}, 1<<61-1
			}, false},
			// 4·δ = 2^63: once a 500 "slot must be positive" from helios.
			{"slot wraps", func(r *MultiRequest) {
				r.Demands, r.Delta, r.C = [][][]int64{{{5}}}, 1<<61, 1
			}, sched.Name() == algo.NameHelios},
			// ρ = 0.3·MaxInt64 passes the 2·(ρ + nδ) bound, but the n·ρ
			// total of a dense coflow wraps: once a 500 "schedule leaves
			// unserved demand" from the BvN rows and a 200 from eclipse.
			{"dense total wraps, n=4", func(r *MultiRequest) {
				r.Demands, r.Delta = [][][]int64{dense(4, math.MaxInt64/10*3)}, 1
			}, true},
			{"dense total wraps, n=8", func(r *MultiRequest) {
				r.Demands, r.Delta = [][][]int64{dense(8, math.MaxInt64/10*3)}, 1
			}, true},
			// Helios sends at most a 4δ slot per pair per slot: 2.5·10⁸
			// slots here, once a run whose schedule grew until the deadline
			// or the process's memory ran out. Its slot bound refuses it.
			{"helios slot bound", func(r *MultiRequest) {
				r.Demands, r.Delta = [][][]int64{{{0, 1e9}, {1e9, 0}}}, 1
			}, sched.Name() == algo.NameHelios},
		}
		for i := range algo.KnobTable {
			if set := setValue(&algo.KnobTable[i]); algo.CheckKnobs(sched, set) != nil {
				cases = append(cases, hostile{"unowned knob", func(r *MultiRequest) { r.Knobs = set }, true})
				break
			}
		}

		for _, tc := range cases {
			name, req := tc.name, base
			tc.edit(&req)
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			hr := httptest.NewRequest(http.MethodPost, "/v1/schedule/multi", bytes.NewReader(body))
			ctx, cancel := context.WithTimeout(hr.Context(), caseDeadline)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(rec, hr.WithContext(ctx))
			runtime.ReadMemStats(&after)
			cancel()
			if got := after.TotalAlloc - before.TotalAlloc; got > caseAlloc {
				t.Errorf("%s, %s: allocated %d B, ceiling %d", sched.Name(), name, got, caseAlloc)
			}
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Errorf("%s, %s: status %d, want 200 or 400: %s", sched.Name(), name, rec.Code, rec.Body.Bytes())
			}
			var payload map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
				t.Errorf("%s, %s: non-JSON body %q: %v", sched.Name(), name, rec.Body.Bytes(), err)
			} else if msg, _ := payload["error"].(string); rec.Code >= 400 && msg == "" {
				t.Errorf("%s, %s: status %d without an error message: %s", sched.Name(), name, rec.Code, rec.Body.Bytes())
			}
			if tc.must400 && rec.Code != http.StatusBadRequest {
				t.Errorf("%s, %s: status %d, want 400", sched.Name(), name, rec.Code)
			}
			var resp MultiResponse
			if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &resp) == nil {
				for k, cct := range resp.CCTs {
					if cct < 0 {
						t.Errorf("%s, %s: coflow %d has negative CCT %d", sched.Name(), name, k, cct)
					}
				}
			}
		}
	}
}
