package lpiigb

import (
	"context"
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

func TestScheduleEmptyInput(t *testing.T) {
	if _, err := ScheduleCtx(context.Background(), nil, nil, 10, true); err == nil {
		t.Error("empty input accepted")
	}
}

func TestScheduleSingleCoflow(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{5, 0},
		{0, 7},
	})
	res, err := ScheduleCtx(context.Background(), []*matrix.Matrix{d}, nil, 3, true)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(res.CCTs) != 1 || res.CCTs[0] <= 0 {
		t.Fatalf("CCTs = %v", res.CCTs)
	}
	if err := res.Flows.Validate(2, 1); err != nil {
		t.Errorf("invalid flows: %v", err)
	}
	if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
		t.Errorf("demand: %v", err)
	}
}

func TestScheduleGroupsCompleteTogether(t *testing.T) {
	// Two similar coflows land in the same LP interval; their CCTs must be
	// equal (groups are all-or-nothing).
	a := mustMatrix(t, [][]int64{{50, 0}, {0, 50}})
	b := mustMatrix(t, [][]int64{{0, 50}, {50, 0}})
	res, err := ScheduleCtx(context.Background(), []*matrix.Matrix{a, b}, nil, 5, true)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	sameGroup := false
	for _, g := range res.Groups {
		if len(g) == 2 {
			sameGroup = true
		}
	}
	if sameGroup && res.CCTs[0] != res.CCTs[1] {
		t.Errorf("same-group coflows have CCTs %v", res.CCTs)
	}
}

func TestScheduleSeparatesScales(t *testing.T) {
	// A tiny coflow vs a huge one on the same port: LP-II-GB should not make
	// the tiny coflow wait for the huge one.
	tiny := mustMatrix(t, [][]int64{{10, 0}, {0, 10}})
	huge := mustMatrix(t, [][]int64{{5000, 0}, {0, 5000}})
	res, err := ScheduleCtx(context.Background(), []*matrix.Matrix{huge, tiny}, nil, 5, true)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.CCTs[1] >= res.CCTs[0] {
		t.Errorf("tiny coflow CCT %d >= huge coflow CCT %d", res.CCTs[1], res.CCTs[0])
	}
}

func TestScheduleHandlesEmptyCoflow(t *testing.T) {
	z, _ := matrix.New(2)
	d := mustMatrix(t, [][]int64{{4, 0}, {0, 4}})
	res, err := ScheduleCtx(context.Background(), []*matrix.Matrix{z, d}, nil, 2, true)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.CCTs[0] > res.CCTs[1] {
		t.Errorf("empty coflow finished after non-empty: %v", res.CCTs)
	}
}

func TestScheduleRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(5)
		kk := 1 + rng.Intn(6)
		var ds []*matrix.Matrix
		w := make([]float64, kk)
		for k := 0; k < kk; k++ {
			m, _ := matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.4 {
						m.Set(i, j, 1+rng.Int63n(200))
					}
				}
			}
			ds = append(ds, m)
			w[k] = rng.Float64() + 0.1
		}
		res, err := ScheduleCtx(context.Background(), ds, w, 7, true)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Flows.Validate(n, kk); err != nil {
			t.Fatalf("trial %d: port constraint: %v", trial, err)
		}
		if err := res.Flows.CheckDemand(ds); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
		// Every coflow's CCT covers its own flows.
		for _, f := range res.Flows {
			if f.End > res.CCTs[f.Coflow] {
				t.Fatalf("trial %d: coflow %d CCT %d before its flow end %d", trial, f.Coflow, res.CCTs[f.Coflow], f.End)
			}
		}
	}
}

func TestScheduleSequentialBasics(t *testing.T) {
	short := mustMatrix(t, [][]int64{{40, 0}, {0, 40}})
	long := mustMatrix(t, [][]int64{{4000, 0}, {0, 4000}})
	res, err := ScheduleSequentialCtx(context.Background(), []*matrix.Matrix{long, short}, nil, 10, true)
	if err != nil {
		t.Fatalf("ScheduleSequential: %v", err)
	}
	if err := res.Flows.Validate(2, 2); err != nil {
		t.Errorf("port constraint: %v", err)
	}
	if err := res.Flows.CheckDemand([]*matrix.Matrix{long, short}); err != nil {
		t.Errorf("demand: %v", err)
	}
	// The LP order must put the short coflow first: its CCT is below the
	// long one's.
	if res.CCTs[1] >= res.CCTs[0] {
		t.Errorf("short coflow finished after long: %v", res.CCTs)
	}
	// Sequential discipline: groups are singletons in LP order.
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %v, want two singletons", res.Groups)
	}
	for _, g := range res.Groups {
		if len(g) != 1 {
			t.Fatalf("group %v not a singleton", g)
		}
	}
}

func TestScheduleSequentialEmptyInputs(t *testing.T) {
	if _, err := ScheduleSequentialCtx(context.Background(), nil, nil, 10, true); err == nil {
		t.Error("empty input accepted")
	}
	z, _ := matrix.New(2)
	d := mustMatrix(t, [][]int64{{5, 0}, {0, 5}})
	res, err := ScheduleSequentialCtx(context.Background(), []*matrix.Matrix{z, d}, nil, 2, true)
	if err != nil {
		t.Fatalf("ScheduleSequential with empty coflow: %v", err)
	}
	if res.CCTs[0] > res.CCTs[1] {
		t.Errorf("empty coflow finished after non-empty: %v", res.CCTs)
	}
}

func TestScheduleSequentialWeighted(t *testing.T) {
	// Equal sizes; the heavily weighted coflow should be ordered first.
	a := mustMatrix(t, [][]int64{{500}})
	b := mustMatrix(t, [][]int64{{500}})
	res, err := ScheduleSequentialCtx(context.Background(), []*matrix.Matrix{a, b}, []float64{0.01, 10}, 5, true)
	if err != nil {
		t.Fatalf("ScheduleSequential: %v", err)
	}
	if res.CCTs[1] >= res.CCTs[0] {
		t.Errorf("weighted coflow not prioritized: %v", res.CCTs)
	}
}

func TestSequentialVsGroupedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(4)
		kk := 2 + rng.Intn(4)
		var ds []*matrix.Matrix
		for k := 0; k < kk; k++ {
			m, _ := matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.5 {
						m.Set(i, j, 1+rng.Int63n(300))
					}
				}
			}
			ds = append(ds, m)
		}
		seq, err := ScheduleSequentialCtx(context.Background(), ds, nil, 7, true)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		grp, err := ScheduleCtx(context.Background(), ds, nil, 7, true)
		if err != nil {
			t.Fatalf("trial %d: grouped: %v", trial, err)
		}
		// Both disciplines must serve the same demand.
		if err := seq.Flows.CheckDemand(ds); err != nil {
			t.Fatalf("trial %d: sequential demand: %v", trial, err)
		}
		if err := grp.Flows.CheckDemand(ds); err != nil {
			t.Fatalf("trial %d: grouped demand: %v", trial, err)
		}
	}
}
