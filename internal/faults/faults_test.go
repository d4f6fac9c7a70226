package faults

import (
	"errors"
	"math"
	"testing"
)

func TestEmpty(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Error("nil schedule not empty")
	}
	if !(&Schedule{Seed: 7}).Empty() {
		t.Error("seed-only schedule not empty")
	}
	if (&Schedule{SetupFailProb: 0.1}).Empty() {
		t.Error("setup-failure schedule reported empty")
	}
	if (&Schedule{PortEvents: []PortEvent{{Tick: 3, Port: 0, Down: true}}}).Empty() {
		t.Error("port-event schedule reported empty")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
	}{
		{"prob too high", Schedule{SetupFailProb: 1}},
		{"negative prob", Schedule{SetupFailProb: -0.1}},
		{"negative jitter", Schedule{JitterBound: -1}},
		{"port out of range", Schedule{PortEvents: []PortEvent{{Tick: 0, Port: 4, Down: true}}}},
		{"negative tick", Schedule{PortEvents: []PortEvent{{Tick: -1, Port: 0, Down: true}}}},
		{"unsorted", Schedule{PortEvents: []PortEvent{{Tick: 5, Port: 0, Down: true}, {Tick: 2, Port: 1, Down: true}}}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(4); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("%s: got %v, want ErrBadSchedule", tc.name, err)
		}
	}
	ok := Schedule{
		PortEvents:    []PortEvent{{Tick: 0, Port: 0, Down: true}, {Tick: 9, Port: 0, Down: false}},
		SetupFailProb: 0.5,
		JitterBound:   3,
	}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := (*Schedule)(nil).Validate(4); err != nil {
		t.Errorf("nil schedule rejected: %v", err)
	}
}

func TestSetupFailsDeterministicAndCalibrated(t *testing.T) {
	s := &Schedule{SetupFailProb: 0.3, Seed: 11}
	const trials = 20000
	fails := 0
	for k := 0; k < trials; k++ {
		a, b := s.SetupFails(k), s.SetupFails(k)
		if a != b {
			t.Fatalf("SetupFails(%d) not deterministic", k)
		}
		if a {
			fails++
		}
	}
	rate := float64(fails) / trials
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("observed failure rate %.3f, want ~0.30", rate)
	}
	if (&Schedule{Seed: 11}).SetupFails(0) {
		t.Error("zero probability failed an establishment")
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	s := &Schedule{JitterBound: 5, Seed: 13}
	seen := map[int64]bool{}
	for k := 0; k < 5000; k++ {
		j := s.Jitter(k)
		if j != s.Jitter(k) {
			t.Fatalf("Jitter(%d) not deterministic", k)
		}
		if j < -5 || j > 5 {
			t.Fatalf("Jitter(%d) = %d outside [-5, 5]", k, j)
		}
		seen[j] = true
	}
	if len(seen) != 11 {
		t.Errorf("jitter covered %d of 11 values in [-5,5]", len(seen))
	}
	if (&Schedule{Seed: 13}).Jitter(4) != 0 {
		t.Error("zero bound produced jitter")
	}
}

func TestPortStateEvolution(t *testing.T) {
	s := &Schedule{PortEvents: []PortEvent{
		{Tick: 0, Port: 1, Down: true},
		{Tick: 10, Port: 2, Down: true},
		{Tick: 15, Port: 1, Down: false},
	}}
	check := func(t64 int64, want []bool) {
		t.Helper()
		got, cursor := make([]bool, 4), 0
		s.ApplyThrough(&cursor, got, t64)
		for p := range want {
			if got[p] != want[p] {
				t.Errorf("ApplyThrough(%d): port %d = %v, want %v", t64, p, got[p], want[p])
			}
		}
	}
	check(0, []bool{false, true, false, false})
	check(9, []bool{false, true, false, false})
	check(10, []bool{false, true, true, false})
	check(15, []bool{false, false, true, false})

	if next := s.NextEventAfter(-1); next != 0 {
		t.Errorf("NextEventAfter(-1) = %d, want 0", next)
	}
	if next := s.NextEventAfter(0); next != 10 {
		t.Errorf("NextEventAfter(0) = %d, want 10", next)
	}
	if next := s.NextEventAfter(15); next != -1 {
		t.Errorf("NextEventAfter(15) = %d, want -1", next)
	}

	// Incremental application matches from-scratch reconstruction.
	down := make([]bool, 4)
	cursor := 0
	s.ApplyThrough(&cursor, down, 9)
	if !down[1] || down[2] {
		t.Errorf("ApplyThrough(9) state %v", down)
	}
	from, to := s.ApplyThrough(&cursor, down, 20)
	if from != 1 || to != 3 {
		t.Errorf("ApplyThrough(20) applied [%d,%d), want [1,3)", from, to)
	}
	if down[1] || !down[2] {
		t.Errorf("final state %v", down)
	}
}

func TestGenerateDeterministicAndShaped(t *testing.T) {
	cfg := GenConfig{
		N: 32, Seed: 5, Horizon: 1000, PortFailRate: 0.5, RepairAfter: 200,
		SetupFailProb: 0.1, JitterBound: 7,
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a.PortEvents) != len(b.PortEvents) {
		t.Fatalf("non-deterministic event counts %d vs %d", len(a.PortEvents), len(b.PortEvents))
	}
	for i := range a.PortEvents {
		if a.PortEvents[i] != b.PortEvents[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.PortEvents[i], b.PortEvents[i])
		}
	}
	if err := a.Validate(cfg.N); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if len(a.PortEvents) == 0 {
		t.Fatal("rate 0.5 over 32 ports generated no events")
	}
	if len(a.PortEvents)%2 != 0 {
		t.Errorf("with repairs every failure should pair with a recovery, got %d events", len(a.PortEvents))
	}
	downs := 0
	for _, ev := range a.PortEvents {
		if ev.Down {
			downs++
			if ev.Tick >= cfg.Horizon {
				t.Errorf("failure at %d beyond horizon %d", ev.Tick, cfg.Horizon)
			}
		}
	}
	if downs*2 != len(a.PortEvents) {
		t.Errorf("%d failures vs %d events", downs, len(a.PortEvents))
	}

	// Different seeds draw different fates.
	cfg.Seed = 6
	c, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	same := len(a.PortEvents) == len(c.PortEvents)
	if same {
		for i := range a.PortEvents {
			if a.PortEvents[i] != c.PortEvents[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 5 and 6 generated identical schedules")
	}
}

func TestGenerateRejectsBadConfigs(t *testing.T) {
	cases := []GenConfig{
		{N: 0, Seed: 1},
		{N: 4, PortFailRate: -0.1},
		{N: 4, PortFailRate: 1.5},
		{N: 4, PortFailRate: 0.5, Horizon: 0},
		{N: 4, RepairAfter: -1},
		{N: 4, SetupFailProb: 1},
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("case %d: got %v, want ErrBadSchedule", i, err)
		}
	}
}

// TestGenerateRejectsRepairOverflow: a repair time that pushes a failed
// port's recovery past MaxInt64 is refused. It used to wrap to a negative
// tick and sort ahead of the failures, handing the simulator a schedule its
// own Validate rejects.
func TestGenerateRejectsRepairOverflow(t *testing.T) {
	cfg := GenConfig{N: 4, Seed: 1, Horizon: 10, PortFailRate: 1, RepairAfter: math.MaxInt64}
	s, err := Generate(cfg)
	if !errors.Is(err, ErrBadSchedule) {
		t.Fatalf("got %v, want ErrBadSchedule (schedule validates: %v)", err, s.Validate(cfg.N))
	}
	// The largest repair that cannot overflow still generates.
	cfg.RepairAfter = math.MaxInt64 - cfg.Horizon
	if s, err = Generate(cfg); err != nil || s.Validate(cfg.N) != nil {
		t.Fatalf("repair %d: %v", cfg.RepairAfter, err)
	}
}

// TestGenerateZeroRateNoPortEvents: at a zero port-failure rate no port
// fails, whatever the fabric, the seed, the horizon or the other faults.
func TestGenerateZeroRateNoPortEvents(t *testing.T) {
	for n := 1; n <= 64; n += 9 {
		for seed := int64(-2); seed < 40; seed += 7 {
			s, err := Generate(GenConfig{N: n, Seed: seed, Horizon: int64(n) * 10, RepairAfter: 5, SetupFailProb: 0.1, JitterBound: 3})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if len(s.PortEvents) != 0 {
				t.Fatalf("n=%d seed=%d: %d port events at rate 0", n, seed, len(s.PortEvents))
			}
		}
	}
}

func TestGenerateNoRepair(t *testing.T) {
	s, err := Generate(GenConfig{N: 16, Seed: 9, Horizon: 100, PortFailRate: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(s.PortEvents) != 16 {
		t.Fatalf("rate 1 over 16 ports made %d events, want 16 (no repairs)", len(s.PortEvents))
	}
	for _, ev := range s.PortEvents {
		if !ev.Down {
			t.Errorf("unexpected repair event %+v", ev)
		}
	}
}

// TestRatesRejectNonFinite: NaN compares false with everything, so a range
// check written as "v < lo || v > hi" lets it through — a NaN port-failure
// rate then fails every port and a NaN setup probability silently injects
// nothing. Every rate must reject NaN and both infinities by name.
func TestRatesRejectNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, err := range map[string]error{
			"Schedule.SetupFailProb":   (&Schedule{SetupFailProb: v}).Validate(4),
			"GenConfig.SetupFailProb":  second(Generate(GenConfig{N: 4, SetupFailProb: v})),
			"GenConfig.PortFailRate":   second(Generate(GenConfig{N: 4, Horizon: 10, PortFailRate: v})),
			"KGenConfig.CoreFailRate":  second(GenerateK(KGenConfig{N: 4, K: 2, Horizon: 10, CoreFailRate: v})),
			"KGenConfig.PortFailRate":  second(GenerateK(KGenConfig{N: 4, K: 2, Horizon: 10, PortFailRate: v})),
			"KGenConfig.SetupFailProb": second(GenerateK(KGenConfig{N: 4, K: 2, SetupFailProb: v})),
		} {
			if !errors.Is(err, ErrBadSchedule) {
				t.Errorf("%s = %v: got %v, want ErrBadSchedule", name, v, err)
			}
		}
	}
}

func second[T any](_ T, err error) error { return err }
