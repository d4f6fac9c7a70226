package ordering

import (
	"context"
	"math/rand"
	"testing"

	"reco/internal/matrix"
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

func checkPermutation(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, k := range order {
		if k < 0 || k >= n || seen[k] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[k] = true
	}
}

func TestSEBF(t *testing.T) {
	small := mustMatrix(t, [][]int64{{2, 0}, {0, 2}})  // rho 2
	medium := mustMatrix(t, [][]int64{{5, 0}, {0, 1}}) // rho 5
	big := mustMatrix(t, [][]int64{{9, 9}, {0, 0}})    // rho 18
	order := SEBF([]*matrix.Matrix{big, small, medium})
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SEBF order = %v, want %v", order, want)
		}
	}
}

func TestPrimalDualBasicProperties(t *testing.T) {
	ds := []*matrix.Matrix{
		mustMatrix(t, [][]int64{{10, 0}, {0, 10}}),
		mustMatrix(t, [][]int64{{1, 0}, {0, 1}}),
		mustMatrix(t, [][]int64{{5, 5}, {5, 5}}),
	}
	order, err := PrimalDual(ds, nil)
	if err != nil {
		t.Fatalf("PrimalDual: %v", err)
	}
	checkPermutation(t, order, 3)
	// With unit weights, the tiny coflow must not be scheduled last: placing
	// it last costs almost nothing to others but ruins its own CCT.
	if order[2] == 1 {
		t.Errorf("tiny coflow placed last in %v", order)
	}
}

func TestPrimalDualWeightSensitivity(t *testing.T) {
	// Identical coflows, very different weights: the heavy-weight one must
	// come first.
	a := mustMatrix(t, [][]int64{{10}})
	b := mustMatrix(t, [][]int64{{10}})
	order, err := PrimalDual([]*matrix.Matrix{a, b}, []float64{0.01, 100})
	if err != nil {
		t.Fatalf("PrimalDual: %v", err)
	}
	if order[0] != 1 {
		t.Errorf("order = %v, want coflow 1 (weight 100) first", order)
	}
}

func TestPrimalDualValidation(t *testing.T) {
	if _, err := PrimalDual(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	a := mustMatrix(t, [][]int64{{1}})
	b := mustMatrix(t, [][]int64{{1, 0}, {0, 1}})
	if _, err := PrimalDual([]*matrix.Matrix{a, b}, nil); err == nil {
		t.Error("mismatched dimensions accepted")
	}
	if _, err := PrimalDual([]*matrix.Matrix{a}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestPrimalDualHandlesEmptyCoflows(t *testing.T) {
	z, _ := matrix.New(2)
	ds := []*matrix.Matrix{z, mustMatrix(t, [][]int64{{3, 0}, {0, 3}}), z}
	order, err := PrimalDual(ds, nil)
	if err != nil {
		t.Fatalf("PrimalDual: %v", err)
	}
	checkPermutation(t, order, 3)
}

// weightedCCT runs the packet list scheduler under the given order and
// returns the total weighted completion time.
func weightedCCT(t *testing.T, ds []*matrix.Matrix, w []float64, order []int) float64 {
	t.Helper()
	s, err := packet.ListSchedule(ds, order)
	if err != nil {
		t.Fatalf("ListSchedule: %v", err)
	}
	return schedule.TotalWeighted(s.CCTs(len(ds)), w)
}

func TestPrimalDualBeatsWorstOrderOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var pdTotal, worstTotal float64
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		kk := 3 + rng.Intn(4)
		var ds []*matrix.Matrix
		w := make([]float64, kk)
		for k := 0; k < kk; k++ {
			m, _ := matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.4 {
						m.Set(i, j, 1+rng.Int63n(40))
					}
				}
			}
			if m.IsZero() {
				m.Set(0, 0, 1)
			}
			ds = append(ds, m)
			w[k] = rng.Float64() + 0.01
		}
		order, err := PrimalDual(ds, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPermutation(t, order, kk)
		pdTotal += weightedCCT(t, ds, w, order)
		// Worst case among a few random permutations.
		worst := 0.0
		for r := 0; r < 5; r++ {
			v := weightedCCT(t, ds, w, rng.Perm(kk))
			if v > worst {
				worst = v
			}
		}
		worstTotal += worst
	}
	if pdTotal > worstTotal {
		t.Errorf("primal-dual total %.0f worse than random-worst total %.0f", pdTotal, worstTotal)
	}
}

func TestLPIISmall(t *testing.T) {
	// A short coflow and a long coflow sharing one port: LP must estimate
	// the short one to finish earlier under equal weights.
	long := mustMatrix(t, [][]int64{{100, 0}, {0, 0}})
	short := mustMatrix(t, [][]int64{{10, 0}, {0, 0}})
	res, err := LPIICtx(context.Background(), []*matrix.Matrix{long, short}, nil)
	if err != nil {
		t.Fatalf("LPII: %v", err)
	}
	checkPermutation(t, res.Order, 2)
	if res.Order[0] != 1 {
		t.Errorf("order = %v (estimates %v), want short coflow first", res.Order, res.Estimate)
	}
	if res.Group[1] > res.Group[0] {
		t.Errorf("groups = %v, short coflow grouped after long", res.Group)
	}
}

func TestLPIIWeighted(t *testing.T) {
	// Equal sizes, one heavily weighted: it should get the earlier estimate.
	a := mustMatrix(t, [][]int64{{50}})
	b := mustMatrix(t, [][]int64{{50}})
	res, err := LPIICtx(context.Background(), []*matrix.Matrix{a, b}, []float64{0.1, 10})
	if err != nil {
		t.Fatalf("LPII: %v", err)
	}
	if res.Estimate[1] > res.Estimate[0] {
		t.Errorf("estimates = %v, want weighted coflow earlier", res.Estimate)
	}
}

func TestLPIIEmptyAndDegenerate(t *testing.T) {
	if _, err := LPIICtx(context.Background(), nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	z, _ := matrix.New(2)
	res, err := LPIICtx(context.Background(), []*matrix.Matrix{z, z}, nil)
	if err != nil {
		t.Fatalf("all-empty LPII: %v", err)
	}
	checkPermutation(t, res.Order, 2)
}

func TestLPIICapacityRespected(t *testing.T) {
	// Five identical coflows on one port: estimates must spread out, since
	// they cannot all finish in the first interval.
	var ds []*matrix.Matrix
	for k := 0; k < 5; k++ {
		ds = append(ds, mustMatrix(t, [][]int64{{20}}))
	}
	res, err := LPIICtx(context.Background(), ds, nil)
	if err != nil {
		t.Fatalf("LPII: %v", err)
	}
	minE, maxE := res.Estimate[0], res.Estimate[0]
	for _, e := range res.Estimate {
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	if maxE < 2*minE {
		t.Errorf("estimates %v do not spread despite shared-port contention", res.Estimate)
	}
}
