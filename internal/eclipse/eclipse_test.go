package eclipse

import (
	"context"
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

func TestScheduleValidation(t *testing.T) {
	d := mustMatrix(t, [][]int64{{5}})
	if _, err := Schedule(context.Background(), d, 0); err == nil {
		t.Error("zero delta accepted")
	}
	if _, err := Schedule(context.Background(), d, -3); err == nil {
		t.Error("negative delta accepted")
	}
}

func TestScheduleEmpty(t *testing.T) {
	z, _ := matrix.New(3)
	cs, err := Schedule(context.Background(), z, 10)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(cs) != 0 {
		t.Errorf("empty demand produced %d assignments", len(cs))
	}
}

func TestSchedulePrefersLongEstablishments(t *testing.T) {
	// A uniform diagonal of 8*delta: the rate is maximized by one long
	// establishment (served 3*8d over 8d+d) rather than eight short ones.
	const delta = 10
	d := mustMatrix(t, [][]int64{
		{80, 0, 0},
		{0, 80, 0},
		{0, 0, 80},
	})
	cs, err := Schedule(context.Background(), d, delta)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(cs) != 1 {
		t.Fatalf("got %d establishments, want 1", len(cs))
	}
	res, err := ocs.ExecAllStop(d, cs, delta)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.CCT != delta+80 {
		t.Errorf("CCT = %d, want %d", res.CCT, delta+80)
	}
}

func TestScheduleDrainsRandomDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		delta := int64(1 + rng.Intn(40))
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.45 {
					m.Set(i, j, 1+rng.Int63n(500))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, 9)
		}
		cs, err := Schedule(context.Background(), m, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := cs.Validate(n); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		res, err := ocs.ExecAllStop(m, cs, delta)
		if err != nil {
			t.Fatalf("trial %d: exec: %v", trial, err)
		}
		if err := res.Flows.CheckDemand([]*matrix.Matrix{m}); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
	}
}

func TestScheduleSkipsDrainedPairsInEstablishment(t *testing.T) {
	// The chosen matching may include pairs that have already drained; they
	// must be dropped from the establishment (held[i] = -1).
	d := mustMatrix(t, [][]int64{
		{100, 0},
		{0, 3},
	})
	cs, err := Schedule(context.Background(), d, 10)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for _, a := range cs {
		active := 0
		for _, j := range a.Perm {
			if j != -1 {
				active++
			}
		}
		if active == 0 {
			t.Error("establishment with no active circuits")
		}
	}
}
