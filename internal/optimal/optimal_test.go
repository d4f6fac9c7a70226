package optimal

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"reco/internal/core"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/solstice"
)

func mustMatrix(t *testing.T, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestMinCCTValidation(t *testing.T) {
	big, _ := matrix.New(6)
	if _, err := MinCCT(big, 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized instance: %v", err)
	}
	d := mustMatrix(t, [][]int64{{1}})
	if _, err := MinCCT(d, -1); err == nil {
		t.Error("negative delta accepted")
	}
}

func TestMinCCTHandConstructed(t *testing.T) {
	tests := []struct {
		name  string
		rows  [][]int64
		delta int64
		want  int64
	}{
		{"zero", [][]int64{{0, 0}, {0, 0}}, 5, 0},
		{"single flow", [][]int64{{10}}, 5, 15},
		{"diagonal pair", [][]int64{{10, 0}, {0, 7}}, 5, 15}, // one establishment, dur 10
		{"shared port", [][]int64{{10, 7}, {0, 0}}, 5, 27},   // two establishments forced
		{"two disjoint then one", [][]int64{
			{10, 3, 0},
			{0, 10, 0},
			{0, 0, 10},
		}, 2, 2 + 10 + 2 + 3}, // diag for 10, then (0,1) for 3
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := MinCCT(mustMatrix(t, tt.rows), tt.delta)
			if err != nil {
				t.Fatalf("MinCCT: %v", err)
			}
			if got != tt.want {
				t.Errorf("MinCCT = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestMinCCTMultiDrainHolding(t *testing.T) {
	// Holding one establishment through both drains beats reconfiguring:
	// {(0,0):10, (1,1):2} in one establishment costs d+10; stopping at the
	// first drain would cost d+2+d+8.
	d := mustMatrix(t, [][]int64{
		{10, 0},
		{0, 2},
	})
	got, err := MinCCT(d, 5)
	if err != nil {
		t.Fatalf("MinCCT: %v", err)
	}
	if got != 15 {
		t.Errorf("MinCCT = %d, want 15 (hold through both drains)", got)
	}
}

func TestMinCCTAtLeastLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(2)
		delta := int64(1 + rng.Intn(8))
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					m.Set(i, j, 1+rng.Int63n(20))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, 1)
		}
		opt, err := MinCCT(m, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lb := ocs.LowerBound(m, delta); opt < lb {
			t.Fatalf("trial %d: OPT %d below lower bound %d for\n%v", trial, opt, lb, m)
		}
	}
}

// TestRecoSinWithinTwiceTrueOptimum verifies Theorem 2 against the exact
// optimum (not just the ρ+τδ bound) on exhaustive small instances.
func TestRecoSinWithinTwiceTrueOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(2)
		delta := int64(1 + rng.Intn(10))
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					m.Set(i, j, 1+rng.Int63n(30))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, 1)
		}
		opt, err := MinCCT(m, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cs, err := core.RecoSin(m, delta)
		if err != nil {
			t.Fatalf("trial %d: reco-sin: %v", trial, err)
		}
		exec, err := ocs.ExecAllStop(m, cs, delta)
		if err != nil {
			t.Fatalf("trial %d: exec: %v", trial, err)
		}
		if exec.CCT > 2*opt {
			t.Fatalf("trial %d: Reco-Sin %d > 2*OPT %d for delta=%d\n%v", trial, exec.CCT, 2*opt, delta, m)
		}
	}
}

// TestSolsticeCanExceedRecoSin records the motivating gap: on at least some
// small instances Solstice is strictly worse than the exact optimum while
// Reco-Sin stays within its factor-2 envelope.
func TestSolsticeCanExceedRecoSin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sawGap := false
	for trial := 0; trial < 60 && !sawGap; trial++ {
		n := 3
		delta := int64(10)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.7 {
					m.Set(i, j, 1+rng.Int63n(40))
				}
			}
		}
		if m.IsZero() {
			continue
		}
		solCS, err := solstice.Schedule(context.Background(), m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sol, err := ocs.ExecAllStop(m, solCS, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		recoCS, err := core.RecoSin(m, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		reco, err := ocs.ExecAllStop(m, recoCS, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.CCT > reco.CCT {
			sawGap = true
		}
	}
	if !sawGap {
		t.Error("no instance where Reco-Sin beats Solstice; generator or algorithms broken")
	}
}
