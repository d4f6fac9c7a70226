package sunflow

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"reco/internal/matrix"
)

func mustMatrix(t *testing.T, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestScheduleEmpty(t *testing.T) {
	z, _ := matrix.New(3)
	res, err := Schedule(context.Background(), z, 10)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.CCT != 0 || res.Establishments != 0 {
		t.Errorf("empty coflow produced %+v", res)
	}
}

func TestScheduleRejectsNegativeDelta(t *testing.T) {
	d := mustMatrix(t, [][]int64{{1}})
	if _, err := Schedule(context.Background(), d, -1); err == nil {
		t.Error("negative delta accepted")
	}
}

func TestScheduleSingleFlow(t *testing.T) {
	d := mustMatrix(t, [][]int64{{40}})
	res, err := Schedule(context.Background(), d, 10)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.CCT != 50 {
		t.Errorf("CCT = %d, want 50 (10 setup + 40 transfer)", res.CCT)
	}
	if res.Establishments != 1 {
		t.Errorf("Establishments = %d, want 1", res.Establishments)
	}
}

func TestScheduleDisjointFlowsOverlap(t *testing.T) {
	// Two flows on disjoint ports: under not-all-stop their setups overlap,
	// so the CCT is the max, not the sum.
	d := mustMatrix(t, [][]int64{
		{30, 0},
		{0, 50},
	})
	res, err := Schedule(context.Background(), d, 10)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.CCT != 60 {
		t.Errorf("CCT = %d, want 60", res.CCT)
	}
}

func TestScheduleSharedPortSerializes(t *testing.T) {
	// Both flows leave ingress 0: they serialize and each pays a setup.
	d := mustMatrix(t, [][]int64{
		{30, 50},
		{0, 0},
	})
	res, err := Schedule(context.Background(), d, 10)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	// LPT: the 50 goes first (10+50=60), then the 30 (60+10+30=100).
	if res.CCT != 100 {
		t.Errorf("CCT = %d, want 100", res.CCT)
	}
	if res.Establishments != 2 {
		t.Errorf("Establishments = %d, want 2", res.Establishments)
	}
}

func TestScheduleInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					m.Set(i, j, 1+rng.Int63n(300))
				}
			}
		}
		res, err := Schedule(context.Background(), m, 1+int64(rng.Intn(50)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Flows.Validate(n, 1); err != nil {
			t.Fatalf("trial %d: port constraint: %v", trial, err)
		}
		if err := res.Flows.CheckDemand([]*matrix.Matrix{m}); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
		if res.Establishments != m.NonZeros() {
			t.Fatalf("trial %d: establishments %d != flows %d", trial, res.Establishments, m.NonZeros())
		}
	}
}

// TestScheduleWithinTwiceLowerBound spot-checks Sunflow's 2-approximation
// claim in the not-all-stop model against the ρ+τδ lower bound adjusted for
// per-flow setups: CCT ≤ 2·(ρ + τ·δ).
func TestScheduleWithinTwiceLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		delta := int64(1 + rng.Intn(30))
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					m.Set(i, j, delta+rng.Int63n(500))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, delta)
		}
		res, err := Schedule(context.Background(), m, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lb := m.MaxRowColSum() + int64(m.MaxRowColNonZeros())*delta
		if res.CCT > 2*lb {
			t.Fatalf("trial %d: CCT %d exceeds 2x lower bound %d", trial, res.CCT, 2*lb)
		}
	}
}

// TestScheduleHonorsCancel checks that a cancelled context stops Schedule
// with ctx.Err() and that a live one changes nothing.
func TestScheduleHonorsCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, _ := matrix.New(40)
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			d.Set(i, j, 1+rng.Int63n(1000))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Schedule(ctx, d, 10); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v, want context.Canceled", err)
	}
	if _, err := Schedule(context.Background(), d, 10); err != nil {
		t.Errorf("live context: %v", err)
	}
}
