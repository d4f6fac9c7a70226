package tms

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"reco/internal/matrix"
	"reco/internal/ocs"
)

func mustMatrix(t *testing.T, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func randomDemand(rng *rand.Rand, n int) *matrix.Matrix {
	m, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				m.Set(i, j, 1+rng.Int63n(200))
			}
		}
	}
	if m.IsZero() {
		m.Set(0, 0, 3)
	}
	return m
}

func TestScheduleBvNEmpty(t *testing.T) {
	z, _ := matrix.New(2)
	cs, err := ScheduleBvN(z)
	if err != nil || len(cs) != 0 {
		t.Errorf("empty demand: cs=%v err=%v", cs, err)
	}
}

func TestScheduleBvNCompletesDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		d := randomDemand(rng, 2+rng.Intn(8))
		cs, err := ScheduleBvN(d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := ocs.ExecAllStop(d, cs, 5)
		if err != nil {
			t.Fatalf("trial %d: exec: %v", trial, err)
		}
		if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
	}
}

func TestScheduleHeliosValidation(t *testing.T) {
	d := mustMatrix(t, [][]int64{{5}})
	if _, err := ScheduleHelios(context.Background(), d, 0); !errors.Is(err, ErrBadSlot) {
		t.Errorf("zero slot err = %v, want ErrBadSlot", err)
	}
	if _, err := ScheduleHelios(context.Background(), d, -3); !errors.Is(err, ErrBadSlot) {
		t.Errorf("negative slot err = %v, want ErrBadSlot", err)
	}
}

func TestScheduleHeliosDrainsDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 25; trial++ {
		d := randomDemand(rng, 2+rng.Intn(6))
		slot := int64(1 + rng.Intn(60))
		cs, err := ScheduleHelios(context.Background(), d, slot)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := cs.Validate(d.N()); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		res, err := ocs.ExecAllStop(d, cs, 2)
		if err != nil {
			t.Fatalf("trial %d: exec: %v", trial, err)
		}
		if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
	}
}

func TestScheduleHeliosSlotGranularity(t *testing.T) {
	// A single flow of 100 with slot 30 needs ceil(100/30) = 4 slots.
	d := mustMatrix(t, [][]int64{{100}})
	cs, err := ScheduleHelios(context.Background(), d, 30)
	if err != nil {
		t.Fatalf("ScheduleHelios: %v", err)
	}
	if len(cs) != 4 {
		t.Errorf("got %d slots, want 4", len(cs))
	}
}

func TestScheduleHeliosSkipsDrainedPairs(t *testing.T) {
	// After the long flow's pair drains, later establishments must not hold
	// the drained circuit (held[i] = -1 for drained pairs).
	d := mustMatrix(t, [][]int64{
		{100, 0},
		{0, 10},
	})
	cs, err := ScheduleHelios(context.Background(), d, 50)
	if err != nil {
		t.Fatalf("ScheduleHelios: %v", err)
	}
	// Slot 1 serves both pairs; slot 2 must only hold (0,0).
	if len(cs) != 2 {
		t.Fatalf("got %d slots, want 2", len(cs))
	}
	if cs[1].Perm[1] != -1 {
		t.Errorf("slot 2 still holds the drained circuit: %v", cs[1].Perm)
	}
}

// The slot count grows with ρ/slot, not with n: a cancelled context must
// end the loop before it builds a million slots.
func TestScheduleHeliosHonorsContext(t *testing.T) {
	d := mustMatrix(t, [][]int64{{4000000, 0}, {0, 1}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScheduleHelios(ctx, d, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
