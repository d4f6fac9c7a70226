package sim

import (
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

func randomDemand(rng *rand.Rand, n int, fill float64) *matrix.Matrix {
	m, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				m.Set(i, j, 1+rng.Int63n(400))
			}
		}
	}
	if m.IsZero() {
		m.Set(0, 0, 7)
	}
	return m
}

func TestRunValidation(t *testing.T) {
	d := mustMatrix(t, [][]int64{{5}})
	if _, err := RunFaults(d, nil, 1, nil); !errors.Is(err, ErrController) {
		t.Errorf("nil controller: %v", err)
	}
	if _, err := RunFaults(d, NewRecover(-1), -1, nil); !errors.Is(err, ErrController) {
		t.Errorf("negative delta: %v", err)
	}
}

type fixedController struct{ decisions []ocs.Decision }

func (f *fixedController) Name() string { return "fixed" }

func (f *fixedController) Next(ocs.State) ocs.Decision {
	if len(f.decisions) == 0 {
		return ocs.Decision{}
	}
	d := f.decisions[0]
	f.decisions = f.decisions[1:]
	return d
}

func TestRunRejectsBadDecisions(t *testing.T) {
	d := mustMatrix(t, [][]int64{{5, 0}, {0, 5}})
	cases := []struct {
		name string
		dec  ocs.Decision
	}{
		{"bad perm", ocs.Decision{Perm: []int{0, 0}}},
		{"short perm", ocs.Decision{Perm: []int{0}}},
		{"negative budget", ocs.Decision{Perm: []int{0, 1}, Budget: -2}},
		{"no demand", ocs.Decision{Perm: []int{1, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunFaults(d, &fixedController{decisions: []ocs.Decision{tc.dec}}, 1, nil)
			if !errors.Is(err, ErrController) {
				t.Errorf("got %v, want ErrController", err)
			}
		})
	}
}

func TestRunStalledController(t *testing.T) {
	d := mustMatrix(t, [][]int64{{5}})
	res, err := RunFaults(d, &fixedController{}, 1, nil)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("got %v, want ErrStalled", err)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
}

func TestRunEmptyDemand(t *testing.T) {
	z, _ := matrix.New(3)
	res, err := RunFaults(z, NewRecover(10), 10, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CCT != 0 || res.Reconfigs != 0 {
		t.Errorf("empty demand produced %+v", res)
	}
}
