package bvn

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"reco/internal/matrix"
)

// stuffedRandom builds a random doubly stochastic matrix via the stuffing
// path the schedulers use, so the sparse tests run on workload-shaped input.
func stuffedRandom(rng *rand.Rand, n int, density float64) *matrix.Matrix {
	m, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				m.Set(i, j, 1+rng.Int63n(300))
			}
		}
	}
	if m.IsZero() {
		m.Set(0, 0, 1)
	}
	return matrix.StuffPreferNonZero(m)
}

func TestDecomposeKRejectsBadInput(t *testing.T) {
	m := mustMatrix(t, [][]int64{{1, 2}, {3, 4}}) // not doubly stochastic
	if _, _, err := DecomposeK(context.Background(), m, 4); err == nil {
		t.Error("non-doubly-stochastic matrix accepted")
	}
	ds := mustMatrix(t, [][]int64{{1, 2}, {2, 1}})
	for _, k := range []int{0, -1} {
		if _, _, err := DecomposeK(context.Background(), ds, k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestDecomposeKCancellation(t *testing.T) {
	ds := stuffedRandom(rand.New(rand.NewSource(7)), 16, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := DecomposeK(ctx, ds, 4); err != context.Canceled {
		t.Errorf("cancelled context: got %v, want context.Canceled", err)
	}
}

// TestDecomposeKMatchesFullDecompose: with k ≥ nnz the k-term path is the
// full max–min decomposition — term-for-term identical (the engine's
// canonical rematch makes extraction deterministic), exact recomposition,
// zero residual.
func TestDecomposeKMatchesFullDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(10)
		ds := stuffedRandom(rng, n, 0.4+0.4*rng.Float64())

		full, err := DecomposeCtx(context.Background(), ds, MaxMin)
		if err != nil {
			t.Fatalf("Decompose: %v", err)
		}
		terms, residual, err := DecomposeK(context.Background(), ds, ds.NonZeros())
		if err != nil {
			t.Fatalf("DecomposeK: %v", err)
		}
		if !residual.IsZero() {
			t.Fatalf("trial %d: residual %d ticks with k = nnz", trial, residual.Total())
		}
		if len(terms) != len(full) {
			t.Fatalf("trial %d: %d terms, full decomposition has %d", trial, len(terms), len(full))
		}
		for u := range terms {
			if terms[u].Dur != full[u].Dur {
				t.Fatalf("trial %d term %d: coef %d, full has %d", trial, u, terms[u].Dur, full[u].Dur)
			}
			for i, j := range terms[u].Perm {
				if full[u].Perm[i] != j {
					t.Fatalf("trial %d term %d: perm diverges at ingress %d", trial, u, i)
				}
			}
		}
		back, err := Recompose(terms, n)
		if err != nil {
			t.Fatalf("Recompose: %v", err)
		}
		if !back.Equal(ds) {
			t.Fatalf("trial %d: k-term decomposition does not sum back to the input", trial)
		}
	}
}

// TestDecomposeKResidualProperty: terms plus residual always recompose the
// input exactly, the residual total is non-increasing in k, and each prefix
// obeys the greedy coverage bound residual(k) ≤ Total·(1−1/nnz)^k.
func TestDecomposeKResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(12)
		ds := stuffedRandom(rng, n, 0.3+0.5*rng.Float64())
		total, nnz := ds.Total(), ds.NonZeros()

		prev := total
		bound := float64(total)
		shrink := 1 - 1/float64(nnz)
		for k := 1; k <= nnz; k++ {
			terms, residual, err := DecomposeK(context.Background(), ds, k)
			if err != nil {
				t.Fatalf("DecomposeK(k=%d): %v", k, err)
			}
			sum, err := Recompose(terms, n)
			if err != nil {
				t.Fatalf("Recompose: %v", err)
			}
			residual.ForEachNonZero(func(i, j int, v int64) { sum.Add(i, j, v) })
			if !sum.Equal(ds) {
				t.Fatalf("trial %d k=%d: terms + residual do not recompose the input", trial, k)
			}
			left := residual.Total()
			if left > prev {
				t.Fatalf("trial %d k=%d: residual %d grew from %d", trial, k, left, prev)
			}
			bound *= shrink
			if float64(left) > bound+1e-9 {
				t.Fatalf("trial %d k=%d: residual %d exceeds coverage bound %.2f (total %d, nnz %d)",
					trial, k, left, bound, total, nnz)
			}
			prev = left
			if left == 0 {
				break
			}
		}
	}
}

// TestDecomposeKReservesBySupport: the term slice is reserved by what the
// matrix can yield, not by the caller's bound — k = 2²⁰ (the top of the
// knob's range) on a 2×2 matrix once reserved 32 MiB to hold two terms.
func TestDecomposeKReservesBySupport(t *testing.T) {
	ds := mustMatrix(t, [][]int64{{3, 1}, {1, 3}})
	const calls = 8
	var before, after runtime.MemStats
	for i := 0; i <= calls; i++ {
		if i == 1 { // the first call may build the pooled engine
			runtime.ReadMemStats(&before)
		}
		terms, residual, err := DecomposeK(context.Background(), ds, 1<<20)
		if err != nil || len(terms) != 2 || !residual.IsZero() {
			t.Fatalf("terms=%d residual zero=%v err=%v", len(terms), residual.IsZero(), err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got >= 4<<10 {
		t.Fatalf("DecomposeK(2x2, k=1<<20) allocates %d bytes per call, want under 4 KiB", got)
	}
}
