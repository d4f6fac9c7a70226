package solstice

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

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

func TestScheduleZero(t *testing.T) {
	z, _ := matrix.New(3)
	cs, err := Schedule(context.Background(), z)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(cs) != 0 {
		t.Errorf("zero matrix produced %d assignments", len(cs))
	}
}

func TestScheduleCompletesDemand(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{104, 109, 102},
		{103, 105, 107},
		{108, 101, 106},
	})
	cs, err := Schedule(context.Background(), d)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	res, err := ocs.ExecAllStop(d, cs, 100)
	if err != nil {
		t.Fatalf("ExecAllStop: %v", err)
	}
	if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
		t.Errorf("demand not satisfied: %v", err)
	}
	if err := res.Flows.Validate(3, 1); err != nil {
		t.Errorf("invalid flow schedule: %v", err)
	}
}

func TestScheduleDurationsArePowersOfTwo(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{37, 0},
		{0, 41},
	})
	cs, err := Schedule(context.Background(), d)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for _, a := range cs {
		if a.Dur&(a.Dur-1) != 0 {
			t.Errorf("assignment duration %d is not a power of two", a.Dur)
		}
	}
}

func TestScheduleThresholdsNonIncreasing(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{64, 3, 0},
		{0, 64, 3},
		{3, 0, 64},
	})
	cs, err := Schedule(context.Background(), d)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].Dur > cs[i-1].Dur {
			t.Errorf("slice durations increased: %d then %d", cs[i-1].Dur, cs[i].Dur)
		}
	}
}

func TestScheduleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					m.Set(i, j, 1+rng.Int63n(500))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, 7)
		}
		cs, err := Schedule(context.Background(), m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := cs.Validate(n); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		res, err := ocs.ExecAllStop(m, cs, 10)
		if err != nil {
			t.Fatalf("trial %d: exec: %v", trial, err)
		}
		if err := res.Flows.CheckDemand([]*matrix.Matrix{m}); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
	}
}

// TestScheduleHonorsDeadline: slicing checks its context once per slice, so
// a 5 ms deadline stops a dense 256-port coflow (density 0.9, cells
// 1–50 000; about a second of slicing in full) with the context's error.
func TestScheduleHonorsDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(256))
	d, _ := matrix.New(256)
	for i := 0; i < 256; i++ {
		for j := 0; j < 256; j++ {
			if rng.Float64() < 0.9 {
				d.Set(i, j, 1+rng.Int63n(50000))
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	cs, err := Schedule(ctx, d)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Schedule under a 5ms deadline: %d assignments, err %v after %v; want context.DeadlineExceeded", len(cs), err, took)
	}
	if took > time.Second {
		t.Errorf("Schedule returned %v after a 5ms deadline", took)
	}
}
