package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/packet"
	"reco/internal/schedule"
)

func mustMatrix(t *testing.T, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestRegularize(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{104, 109, 102},
		{103, 105, 107},
		{108, 101, 106},
	})
	// The Fig. 2 example: with delta = 100 every entry becomes 200.
	reg := Regularize(d, 100)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if reg.At(i, j) != 200 {
				t.Fatalf("entry (%d,%d) = %d, want 200", i, j, reg.At(i, j))
			}
		}
	}
	// Entries already on the grid are unchanged; zeros stay zero.
	d2 := mustMatrix(t, [][]int64{{300, 0}, {0, 150}})
	reg2 := Regularize(d2, 100)
	if reg2.At(0, 0) != 300 || reg2.At(0, 1) != 0 || reg2.At(1, 1) != 200 {
		t.Errorf("Regularize grid/zero handling wrong: %v", reg2)
	}
	// delta <= 0 is a clone.
	if !Regularize(d, 0).Equal(d) {
		t.Error("Regularize with delta 0 changed the matrix")
	}
}

func TestRegularizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		delta := 1 + rng.Int63n(50)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					m.Set(i, j, 1+rng.Int63n(500))
				}
			}
		}
		reg := Regularize(m, delta)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v, orig := reg.At(i, j), m.At(i, j)
				if v%delta != 0 || v < orig || v-orig >= delta || (orig == 0) != (v == 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRecoSinPaperExample(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{104, 109, 102},
		{103, 105, 107},
		{108, 101, 106},
	})
	cs, err := RecoSin(d, 100)
	if err != nil {
		t.Fatalf("RecoSin: %v", err)
	}
	// Fig. 2: the regularized matrix decomposes into exactly 3 permutations.
	if len(cs) != 3 {
		t.Fatalf("got %d assignments, want 3", len(cs))
	}
	res, err := ocs.ExecAllStop(d, cs, 100)
	if err != nil {
		t.Fatalf("ExecAllStop: %v", err)
	}
	if res.CCT != 618 {
		t.Errorf("CCT = %d, want 618 (Fig. 2 walkthrough)", res.CCT)
	}
}

func TestRecoSinEdgeCases(t *testing.T) {
	z, _ := matrix.New(2)
	cs, err := RecoSin(z, 100)
	if err != nil || len(cs) != 0 {
		t.Errorf("zero matrix: cs=%v err=%v", cs, err)
	}
	d := mustMatrix(t, [][]int64{{5}})
	if _, err := RecoSin(d, -1); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative delta err = %v, want ErrBadParam", err)
	}
	// delta == 0: still a valid schedule, just no regularization.
	cs, err = RecoSin(d, 0)
	if err != nil {
		t.Fatalf("delta 0: %v", err)
	}
	if _, err := ocs.ExecAllStop(d, cs, 0); err != nil {
		t.Errorf("delta 0 exec: %v", err)
	}
}

// TestRecoSinTheorem2 checks the paper's Theorem 2 end-to-end: the executed
// CCT of Reco-Sin never exceeds 2·(ρ + τ·δ), which itself lower-bounds twice
// the optimum. This holds for arbitrary demand matrices (the theorem does
// not need the c·δ minimum-demand assumption).
func TestRecoSinTheorem2(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		delta := int64(1 + rng.Intn(200))
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.45 {
					m.Set(i, j, 1+rng.Int63n(2000))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, 1)
		}
		cs, err := RecoSin(m, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := ocs.ExecAllStop(m, cs, delta)
		if err != nil {
			t.Fatalf("trial %d: exec: %v", trial, err)
		}
		if err := res.Flows.CheckDemand([]*matrix.Matrix{m}); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
		lb := ocs.LowerBound(m, delta)
		if res.CCT > 2*lb {
			t.Fatalf("trial %d: CCT %d exceeds 2·LB %d (Theorem 2 violated)", trial, res.CCT, 2*lb)
		}
	}
}

// TestRecoSinLemma1 checks Lemma 1: reconfiguration time never exceeds
// transmission time, because every establishment lasts at least delta.
func TestRecoSinLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		delta := int64(1 + rng.Intn(100))
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					m.Set(i, j, 1+rng.Int63n(1000))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, 1)
		}
		if _, singlePort := ocs.SinglePortSchedule(m); singlePort {
			// Single-port coflows take the optimal serial path, which is
			// exact rather than regularized; Lemma 1 speaks to the
			// regularized pipeline.
			continue
		}
		cs, err := RecoSin(m, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The schedule's own durations satisfy dur >= delta; the planned
		// configuration time is m assignments * delta <= planned
		// transmission.
		var planned int64
		for _, a := range cs {
			if a.Dur < delta {
				t.Fatalf("trial %d: assignment duration %d < delta %d", trial, a.Dur, delta)
			}
			if a.Dur%delta != 0 {
				t.Fatalf("trial %d: assignment duration %d not a multiple of delta", trial, a.Dur)
			}
			planned += a.Dur
		}
		if int64(len(cs))*delta > planned {
			t.Fatalf("trial %d: conf time exceeds planned transmission time", trial)
		}
	}
}

func TestRecoMulValidation(t *testing.T) {
	sp := schedule.FlowSchedule{{Start: 0, End: 10, In: 0, Out: 0, Coflow: 0}}
	if _, err := RecoMul(sp, 1, -1, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative delta: %v", err)
	}
	if _, err := RecoMul(sp, 1, 10, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("c=0: %v", err)
	}
	if _, err := RecoMul(sp, 0, 10, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("n=0: %v", err)
	}
	gapped := schedule.FlowSchedule{{Start: 0, End: 10, Gap: 2, In: 0, Out: 0}}
	if _, err := RecoMul(gapped, 1, 10, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("gapped input: %v", err)
	}
	for _, f := range []schedule.FlowInterval{
		{Start: 0, End: 10, In: 5, Out: 0},
		{Start: 0, End: 10, In: -1, Out: 0}, // once an index-out-of-range panic
		{Start: 0, End: 10, In: 0, Out: -1},
		{Start: 10, End: 0, In: 0, Out: 0},
	} {
		if _, err := RecoMul(schedule.FlowSchedule{f}, 2, 10, 4); !errors.Is(err, ErrBadParam) {
			t.Errorf("interval %+v: %v", f, err)
		}
	}
	// ⌊√c⌋·delta wraps int64: once a zero grid and a division by zero.
	if _, err := RecoMul(sp, 1, 1<<33, 1<<62); !errors.Is(err, ErrBadParam) {
		t.Errorf("grid overflow: %v", err)
	}
}

// TestRecoMulHugeC: c near MaxInt64 with a representable grid schedules
// like any other c; isqrt was once a linear loop whose (r+1)² wrapped past
// MaxInt64 and never ended here.
func TestRecoMulHugeC(t *testing.T) {
	sp := schedule.FlowSchedule{{Start: 0, End: 500, In: 0, Out: 1}, {Start: 0, End: 500, In: 1, Out: 0}}
	res, err := RecoMul(sp, 2, 100, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigs != 1 || res.Flows[0].End != 600 {
		t.Errorf("reconfigs %d, first flow %+v; want 1 and an end of 600", res.Reconfigs, res.Flows[0])
	}
}

func TestRecoMulZeroDeltaIsIdentity(t *testing.T) {
	sp := schedule.FlowSchedule{
		{Start: 0, End: 10, In: 0, Out: 0, Coflow: 0},
		{Start: 10, End: 15, In: 0, Out: 1, Coflow: 1},
	}
	res, err := RecoMul(sp, 2, 0, 4)
	if err != nil {
		t.Fatalf("RecoMul: %v", err)
	}
	if res.Reconfigs != 0 || res.ConfTime != 0 {
		t.Errorf("delta 0 charged reconfigurations: %+v", res)
	}
	for i := range sp {
		if res.Flows[i] != sp[i] {
			t.Errorf("interval %d changed: %+v -> %+v", i, sp[i], res.Flows[i])
		}
	}
}

func TestRecoMulAlignsStarts(t *testing.T) {
	// Fig. 3 scenario: three conflict-free flows with slightly staggered
	// starts must share a single reconfiguration after regularization.
	const delta, c = 10, 4 // s = 2, grid = 20
	sp := schedule.FlowSchedule{
		{Start: 45, End: 95, In: 0, Out: 0, Coflow: 0},
		{Start: 47, End: 99, In: 1, Out: 1, Coflow: 0},
		{Start: 49, End: 93, In: 2, Out: 2, Coflow: 0},
	}
	res, err := RecoMul(sp, 3, delta, c)
	if err != nil {
		t.Fatalf("RecoMul: %v", err)
	}
	if res.Reconfigs != 1 {
		t.Errorf("Reconfigs = %d, want 1 (aligned starts)", res.Reconfigs)
	}
	for _, f := range res.Flows {
		if (f.Start-delta)%20 != 0 {
			t.Errorf("flow start %d is not grid-aligned after the reconfiguration", f.Start)
		}
	}
	if err := res.Flows.Validate(3, 1); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
}

func TestRecoMulFeasibleOnConflictingFlows(t *testing.T) {
	// Two flows sharing a port back-to-back in S_p must stay ordered and
	// non-overlapping in S_o, with at least delta between them.
	const delta, c = 10, 4
	sp := schedule.FlowSchedule{
		{Start: 0, End: 40, In: 0, Out: 0, Coflow: 0},
		{Start: 40, End: 80, In: 0, Out: 1, Coflow: 1},
	}
	res, err := RecoMul(sp, 2, delta, c)
	if err != nil {
		t.Fatalf("RecoMul: %v", err)
	}
	if err := res.Flows.Validate(2, 2); err != nil {
		t.Fatalf("port constraint violated: %v", err)
	}
}

func TestRecoMulHandlesTinyFlows(t *testing.T) {
	// Flows shorter than c·delta violate the paper's assumption; the
	// conflict-resolution pass must still deliver a feasible schedule.
	const delta, c = 100, 9
	sp := schedule.FlowSchedule{
		{Start: 0, End: 5, In: 0, Out: 0, Coflow: 0},
		{Start: 5, End: 12, In: 0, Out: 1, Coflow: 0},
		{Start: 12, End: 14, In: 0, Out: 0, Coflow: 1},
	}
	res, err := RecoMul(sp, 2, delta, c)
	if err != nil {
		t.Fatalf("RecoMul: %v", err)
	}
	if err := res.Flows.Validate(2, 2); err != nil {
		t.Fatalf("port constraint violated: %v", err)
	}
}

func TestRecoMulRandomFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		kk := 1 + rng.Intn(5)
		delta := int64(1 + rng.Intn(50))
		c := int64(1 + rng.Intn(9))
		var ds []*matrix.Matrix
		for k := 0; k < kk; k++ {
			m, _ := matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.35 {
						// Mostly respect the c·delta assumption, with some
						// violations mixed in.
						m.Set(i, j, c*delta+rng.Int63n(20*delta))
						if rng.Float64() < 0.1 {
							m.Set(i, j, 1+rng.Int63n(delta))
						}
					}
				}
			}
			ds = append(ds, m)
		}
		order := rng.Perm(kk)
		sp, err := packet.ListSchedule(ds, order)
		if err != nil {
			t.Fatalf("trial %d: list schedule: %v", trial, err)
		}
		res, err := RecoMul(sp, n, delta, c)
		if err != nil {
			t.Fatalf("trial %d: RecoMul: %v", trial, err)
		}
		if err := res.Flows.Validate(n, kk); err != nil {
			t.Fatalf("trial %d: port constraint: %v", trial, err)
		}
		if err := res.Flows.CheckDemand(ds); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
	}
}

// TestRecoMulTheorem3 checks the approximation transfer of Theorem 3 on
// assumption-respecting inputs: per-coflow CCT in S_o is at most
// (1+1/⌊√c⌋)² times its CCT in S_p.
func TestRecoMulTheorem3(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		kk := 1 + rng.Intn(4)
		delta := int64(1 + rng.Intn(30))
		c := int64(4 + rng.Intn(12))
		var ds []*matrix.Matrix
		for k := 0; k < kk; k++ {
			m, _ := matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.4 {
						m.Set(i, j, c*delta+rng.Int63n(30*delta))
					}
				}
			}
			if m.IsZero() {
				m.Set(rng.Intn(n), rng.Intn(n), c*delta)
			}
			ds = append(ds, m)
		}
		res, err := ScheduleMulCtx(context.Background(), ds, nil, delta, c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ratio := ApproxRatioMul(1, c)
		for k := range ds {
			if res.PacketCCTs[k] == 0 {
				continue
			}
			got := float64(res.CCTs[k]) / float64(res.PacketCCTs[k])
			if got > ratio+1e-9 {
				t.Fatalf("trial %d: coflow %d blowup %.3f exceeds bound %.3f (c=%d)", trial, k, got, ratio, c)
			}
		}
	}
}

func TestApproxRatioMul(t *testing.T) {
	// c=4 -> s=2 -> 4*(1.5)^2 = 9.
	if got := ApproxRatioMul(4, 4); got != 9 {
		t.Errorf("ApproxRatioMul(4,4) = %v, want 9", got)
	}
	// c=9 -> s=3 -> (4/3)^2.
	if got, want := ApproxRatioMul(1, 9), 16.0/9.0; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("ApproxRatioMul(1,9) = %v, want %v", got, want)
	}
}

func TestIsqrt(t *testing.T) {
	cases := map[int64]int64{
		0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 15: 3, 16: 4, 100: 10,
		1e18 - 1: 999999999, 1e18: 1e9,
		3037000499*3037000499 - 1: 3037000498, 3037000499 * 3037000499: 3037000499,
		math.MaxInt64: 3037000499,
	}
	for in, want := range cases {
		if got := isqrt(in); got != want {
			t.Errorf("isqrt(%d) = %d, want %d", in, got, want)
		}
	}
	if isqrt(-5) != 0 {
		t.Error("isqrt of negative should be 0")
	}
}

func TestScheduleMulValidation(t *testing.T) {
	if _, err := ScheduleMulCtx(context.Background(), nil, nil, 10, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("empty input: %v", err)
	}
}
