package solstice

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"reco/internal/matching"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/workload"
)

// goldenCorpus is the seeded input set TestSolsticeGolden pins: the first
// two coflows of each Table I density class drawn at n = 16, 60 and 150,
// single-port coflows (row, column and one flow), matrices whose slicing
// halves down to r = 1, and entries near 2⁴⁰.
func goldenCorpus(t *testing.T) []*matrix.Matrix {
	t.Helper()
	var out []*matrix.Matrix
	for _, n := range []int{16, 60, 150} {
		coflows, err := workload.GenerateWith(rand.New(rand.NewSource(int64(n))),
			workload.GenConfig{N: n, NumCoflows: 60})
		if err != nil {
			t.Fatalf("GenerateWith(n=%d): %v", n, err)
		}
		kept := map[workload.Class]int{}
		for _, c := range coflows {
			if cl := workload.Classify(c.Demand); kept[cl] < 2 {
				kept[cl]++
				out = append(out, c.Demand)
			}
		}
		for _, cl := range []workload.Class{workload.Sparse, workload.Normal, workload.Dense} {
			if kept[cl] != 2 {
				t.Fatalf("n=%d: drew %d %s coflows, want 2", n, kept[cl], cl)
			}
		}
	}
	out = append(out,
		mustMatrix(t, [][]int64{{0, 0, 0}, {5, 900, 17}, {0, 0, 0}}),
		mustMatrix(t, [][]int64{{0, 3, 0}, {0, 0, 0}, {0, 1 << 20, 0}}),
		mustMatrix(t, [][]int64{{0, 0}, {0, 77}}),
		mustMatrix(t, [][]int64{{37, 0}, {0, 41}}),
		mustMatrix(t, [][]int64{{7, 0, 3}, {0, 5, 0}, {1, 0, 9}}),
		mustMatrix(t, [][]int64{
			{1<<40 - 1, 3, 0, 1 << 39},
			{0, 1<<40 + 5, 1<<38 - 7, 0},
			{1<<40 + 1, 0, 0, 11},
			{2, 1 << 40, 1<<40 - 3, 0},
		}))
	rng := rand.New(rand.NewSource(4001))
	odd, _ := matrix.New(12)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if rng.Intn(3) == 0 {
				odd.Set(i, j, 2*rng.Int63n(1000)+1)
			}
		}
	}
	return append(out, odd)
}

// hashSchedule feeds one schedule into h: its length, then every
// assignment's duration and permutation.
func hashSchedule(h io.Writer, cs ocs.CircuitSchedule) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(cs)))
	for _, a := range cs {
		put(a.Dur)
		put(int64(len(a.Perm)))
		for _, v := range a.Perm {
			put(int64(v))
		}
	}
}

// TestSolsticeGolden pins Schedule's output on goldenCorpus: every
// assignment's duration and permutation, in order. A speed change to the
// slicing loop must leave this digest as it is.
func TestSolsticeGolden(t *testing.T) {
	const want = "5482917b68c92b7fa753d1dbbcb92f2132dd55c5b0810e5b1a11ebd526a54d82"
	h := sha256.New()
	sliceAtOne := false
	for k, d := range goldenCorpus(t) {
		cs, err := Schedule(context.Background(), d)
		if err != nil {
			t.Fatalf("matrix %d (n=%d): %v", k, d.N(), err)
		}
		sliceAtOne = sliceAtOne || len(cs) > 1 && cs[len(cs)-1].Dur == 1
		hashSchedule(h, cs)
	}
	if !sliceAtOne {
		t.Error("no corpus matrix slices down to r = 1")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("schedule digest %s, want %s", got, want)
	}
}

// rescanSchedule is the slicing loop as it was written before the graph
// was kept across slices: reload the thresholded support and rematch from
// scratch for every slice. It is the reference Schedule must reproduce.
func rescanSchedule(ctx context.Context, d *matrix.Matrix) (ocs.CircuitSchedule, error) {
	if d.IsZero() {
		return nil, nil
	}
	if cs, ok := ocs.SinglePortSchedule(d); ok {
		return cs, nil
	}
	res := matrix.StuffPreferNonZero(d)
	n := res.N()

	r := int64(1)
	for r*2 <= res.MaxEntry() {
		r *= 2
	}

	g := matching.NewGraph(n)
	left := res.Total()
	var cs ocs.CircuitSchedule
	for left > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g.LoadThreshold(res, r)
		perm, size := g.MaxMatching()
		if size != n {
			if r == 1 {
				return nil, fmt.Errorf("%w: no perfect matching at r=1", ErrStuck)
			}
			r /= 2
			continue
		}
		for i, j := range perm {
			res.Add(i, j, -r)
			if res.At(i, j) < 0 {
				return nil, fmt.Errorf("%w: negative residual after slice", ErrStuck)
			}
		}
		left -= r * int64(n)
		cs = append(cs, ocs.Assignment{Perm: perm, Dur: r})
	}
	return cs, nil
}

// TestScheduleMatchesRescan compares Schedule with the rescan reference on
// random matrices: raw ones, which Schedule stuffs, and already stuffed
// ones, over several densities and value ranges.
func TestScheduleMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1509))
	densities := []float64{0.1, 0.3, 0.6, 1}
	ranges := []int64{4, 64, 5000, 1 << 40}
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(23)
		p, top := densities[rng.Intn(len(densities))], ranges[rng.Intn(len(ranges))]
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < p {
					m.Set(i, j, 1+rng.Int63n(top))
				}
			}
		}
		if trial%2 == 1 {
			m = matrix.StuffPreferNonZero(m)
		}
		want, wantErr := rescanSchedule(context.Background(), m)
		got, err := Schedule(context.Background(), m)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d (n=%d): err %v, reference err %v", trial, n, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d): %d assignments, reference %d", trial, n, len(got), len(want))
		}
		for k := range want {
			if got[k].Dur != want[k].Dur || !slices.Equal(got[k].Perm, want[k].Perm) {
				t.Fatalf("trial %d (n=%d): assignment %d is %v for %d, reference %v for %d",
					trial, n, k, got[k].Perm, got[k].Dur, want[k].Perm, want[k].Dur)
			}
		}
	}
}
