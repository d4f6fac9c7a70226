package packet

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"reco/internal/matrix"
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

func TestListScheduleSingleCoflow(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{3, 2},
		{0, 4},
	})
	s, err := ListSchedule([]*matrix.Matrix{d}, []int{0})
	if err != nil {
		t.Fatalf("ListSchedule: %v", err)
	}
	if err := s.Validate(2, 1); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if err := s.CheckDemand([]*matrix.Matrix{d}); err != nil {
		t.Fatalf("demand: %v", err)
	}
	// Exactly one interval per non-zero demand entry and exact durations.
	if len(s) != 3 {
		t.Fatalf("got %d intervals, want 3", len(s))
	}
	for _, f := range s {
		if f.Transmitted() != d.At(f.In, f.Out) {
			t.Errorf("pair (%d,%d) transmitted %d, want %d", f.In, f.Out, f.Transmitted(), d.At(f.In, f.Out))
		}
	}
}

func TestListScheduleRespectsOrder(t *testing.T) {
	// Two coflows competing for the same single port pair; the one first in
	// the order must finish first.
	a := mustMatrix(t, [][]int64{{10}})
	b := mustMatrix(t, [][]int64{{5}})
	ds := []*matrix.Matrix{a, b}

	s, err := ListSchedule(ds, []int{1, 0})
	if err != nil {
		t.Fatalf("ListSchedule: %v", err)
	}
	ccts := s.CCTs(2)
	if ccts[1] != 5 || ccts[0] != 15 {
		t.Errorf("CCTs = %v, want [15 5]", ccts)
	}
}

func TestListScheduleBackfills(t *testing.T) {
	// Coflow 0 occupies ports (0,0); coflow 1 uses disjoint ports (1,1) and
	// must start at time 0 despite its lower priority.
	a := mustMatrix(t, [][]int64{
		{10, 0},
		{0, 0},
	})
	b := mustMatrix(t, [][]int64{
		{0, 0},
		{0, 4},
	})
	s, err := ListSchedule([]*matrix.Matrix{a, b}, []int{0, 1})
	if err != nil {
		t.Fatalf("ListSchedule: %v", err)
	}
	ccts := s.CCTs(2)
	if ccts[1] != 4 {
		t.Errorf("disjoint coflow CCT = %d, want 4 (backfilled)", ccts[1])
	}
}

func TestListScheduleValidation(t *testing.T) {
	d := mustMatrix(t, [][]int64{{1}})
	if _, err := ListSchedule(nil, nil); err == nil {
		t.Error("empty coflow set accepted")
	}
	if _, err := ListSchedule([]*matrix.Matrix{d}, []int{0, 1}); err == nil {
		t.Error("bad order length accepted")
	}
	if _, err := ListSchedule([]*matrix.Matrix{d, d}, []int{0, 0}); err == nil {
		t.Error("non-permutation order accepted")
	}
	d2 := mustMatrix(t, [][]int64{{1, 0}, {0, 1}})
	if _, err := ListSchedule([]*matrix.Matrix{d, d2}, []int{0, 1}); err == nil {
		t.Error("mismatched dimensions accepted")
	}
}

// TestAppendListScheduleCancelled: a cancelled context stops the list
// schedule before it places a coflow, and the caller's storage comes back as
// it went in, spare capacity included.
func TestAppendListScheduleCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := mustMatrix(t, [][]int64{{3, 2}, {0, 4}})
	dst := make(schedule.FlowSchedule, 1, 2) // too short for the schedule: a grown copy is not dst
	dst[0] = schedule.FlowInterval{Start: 1, End: 2, In: 1, Out: 1, Coflow: 7}
	before := slices.Clone(dst[:cap(dst)])
	got, err := AppendListSchedule(ctx, dst, []*matrix.Matrix{d, d}, []int{1, 0})
	if err != ctx.Err() {
		t.Fatalf("error %v, want %v", err, ctx.Err())
	}
	if len(got) != len(dst) || cap(got) != cap(dst) || &got[0] != &dst[0] {
		t.Fatalf("returned %d/%d flows, want dst's %d/%d", len(got), cap(got), len(dst), cap(dst))
	}
	if !slices.Equal(dst[:cap(dst)], before) {
		t.Fatalf("dst written: %v, was %v", dst[:cap(dst)], before)
	}
}

func TestListScheduleRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		kk := 1 + rng.Intn(5)
		var ds []*matrix.Matrix
		for k := 0; k < kk; k++ {
			m, _ := matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.3 {
						m.Set(i, j, 1+rng.Int63n(50))
					}
				}
			}
			ds = append(ds, m)
		}
		order := rng.Perm(kk)
		s, err := ListSchedule(ds, order)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(n, kk); err != nil {
			t.Fatalf("trial %d: port constraint: %v", trial, err)
		}
		if err := s.CheckDemand(ds); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
		// Non-preemptive: every interval's length equals its pair demand.
		for _, f := range s {
			if f.Gap != 0 {
				t.Fatalf("trial %d: packet schedule has a gap", trial)
			}
			if f.Duration() != ds[f.Coflow].At(f.In, f.Out) {
				t.Fatalf("trial %d: preempted flow detected", trial)
			}
		}
	}
}

func TestFluidCCTsValidation(t *testing.T) {
	d := mustMatrix(t, [][]int64{{1}})
	if _, err := FluidCCTs(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := FluidCCTs([]*matrix.Matrix{d}, []int{0, 1}); err == nil {
		t.Error("bad order length accepted")
	}
	if _, err := FluidCCTs([]*matrix.Matrix{d, d}, []int{1, 1}); err == nil {
		t.Error("non-permutation accepted")
	}
	d2 := mustMatrix(t, [][]int64{{1, 0}, {0, 1}})
	if _, err := FluidCCTs([]*matrix.Matrix{d, d2}, []int{0, 1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestFluidCCTsBottleneckSums(t *testing.T) {
	a := mustMatrix(t, [][]int64{
		{10, 5},
		{0, 8},
	}) // rho = 15
	b := mustMatrix(t, [][]int64{
		{4, 0},
		{0, 4},
	}) // rho = 4
	ccts, err := FluidCCTs([]*matrix.Matrix{a, b}, []int{1, 0})
	if err != nil {
		t.Fatalf("FluidCCTs: %v", err)
	}
	if ccts[1] != 4 || ccts[0] != 19 {
		t.Errorf("CCTs = %v, want [19 4]", ccts)
	}
}

// TestFluidLowerBoundsListSchedule pins the model relationship that does
// hold: the first coflow in the order completes no earlier in the
// non-preemptive list schedule than its fluid bottleneck time (later
// coflows may beat the sequential-fluid prefix by backfilling).
func TestFluidLowerBoundsListSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(6)
		kk := 2 + rng.Intn(4)
		var ds []*matrix.Matrix
		for k := 0; k < kk; k++ {
			m, _ := matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.4 {
						m.Set(i, j, 1+rng.Int63n(60))
					}
				}
			}
			if m.IsZero() {
				m.Set(0, 0, 1)
			}
			ds = append(ds, m)
		}
		order := rng.Perm(kk)
		fluid, err := FluidCCTs(ds, order)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sp, err := ListSchedule(ds, order)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		listCCTs := sp.CCTs(kk)
		first := order[0]
		if listCCTs[first] < fluid[first] {
			t.Fatalf("trial %d: list CCT %d below fluid bottleneck %d", trial, listCCTs[first], fluid[first])
		}
	}
}
