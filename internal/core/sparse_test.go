package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/solstice"
)

func TestRecoSparseEdgeCases(t *testing.T) {
	z, _ := matrix.New(3)
	cs, err := RecoSparseCtx(context.Background(), z, 100, 4)
	if err != nil || cs != nil {
		t.Errorf("zero matrix: cs=%v err=%v, want nil, nil", cs, err)
	}
	d := mustMatrix(t, [][]int64{{3, 1}, {2, 4}})
	if _, err := RecoSparseCtx(context.Background(), d, -1, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative delta: %v, want ErrBadParam", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RecoSparseCtx(ctx, d, 100, 4); err == nil {
		t.Error("cancelled context accepted")
	}

	// Single-port demand takes the one-establishment shortcut.
	sp := mustMatrix(t, [][]int64{{0, 7, 0}, {0, 0, 0}, {0, 0, 0}})
	cs, err = RecoSparseCtx(context.Background(), sp, 100, 1)
	if err != nil || len(cs) != 1 {
		t.Fatalf("single-port: %d assignments, err=%v", len(cs), err)
	}
	if res, err := ocs.ExecAllStop(sp, cs, 100); err != nil || res.Reconfigs != 1 {
		t.Errorf("single-port execution: reconfigs=%d err=%v", res.Reconfigs, err)
	}
}

// TestRecoSparseCompletes: for every k the two-phase schedule serves the full
// demand under the all-stop executor — the k terms cover the stuffed matrix
// minus the residual, and the cleanup rounds drain the rest completely.
func TestRecoSparseCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(10)
		d, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					d.Set(i, j, 1+rng.Int63n(400))
				}
			}
		}
		if d.IsZero() {
			d.Set(0, 1, 5)
		}
		for _, k := range []int{1, 2, 4, 8, 0} { // 0 = DefaultSparseK
			cs, err := RecoSparseCtx(context.Background(), d, 100, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if err := cs.Validate(n); err != nil {
				t.Fatalf("trial %d k=%d: invalid schedule: %v", trial, k, err)
			}
			if _, err := ocs.ExecAllStop(d, cs, 100); err != nil {
				t.Fatalf("trial %d k=%d: execution failed: %v", trial, k, err)
			}
		}
	}
}

// TestRecoSparseDeterministic: the scheduler is a pure function of its input.
func TestRecoSparseDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 12
	d, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				d.Set(i, j, 1+rng.Int63n(200))
			}
		}
	}
	a, err := RecoSparseCtx(context.Background(), d, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecoSparseCtx(context.Background(), d, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for u := range a {
		if a[u].Dur != b[u].Dur {
			t.Fatalf("assignment %d: durations differ", u)
		}
		for i := range a[u].Perm {
			if a[u].Perm[i] != b[u].Perm[i] {
				t.Fatalf("assignment %d: permutations differ at ingress %d", u, i)
			}
		}
	}
}

// TestRecoSparseFewerReconfigs: on a dense demand matrix the k-term schedule
// establishes far fewer circuits than the full unregularized decomposition
// (Solstice, the k = nnz limit of the same pipeline) — the point of the knob.
func TestRecoSparseFewerReconfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 24
	d, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.8 {
				d.Set(i, j, 1+rng.Int63n(500))
			}
		}
	}
	full, err := solstice.Schedule(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := RecoSparseCtx(context.Background(), d, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := ocs.ExecAllStop(d, full, 100)
	if err != nil {
		t.Fatal(err)
	}
	sparseRes, err := ocs.ExecAllStop(d, sparse, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sparseRes.Reconfigs*2 >= fullRes.Reconfigs {
		t.Errorf("sparse schedule uses %d reconfigs, full %d: want < half",
			sparseRes.Reconfigs, fullRes.Reconfigs)
	}
	if sparseRes.CCT > 3*fullRes.CCT {
		t.Errorf("sparse CCT %d more than 3x full CCT %d", sparseRes.CCT, fullRes.CCT)
	}
}
