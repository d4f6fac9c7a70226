package bvn

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"reco/internal/matrix"
	"reco/internal/obs"
)

func mustMatrix(t *testing.T, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestDecomposeRejectsNonDS(t *testing.T) {
	m := mustMatrix(t, [][]int64{{1, 2}, {3, 4}})
	if _, err := DecomposeCtx(context.Background(), m, MaxMin); !errors.Is(err, ErrNotDoublyStochastic) {
		t.Errorf("err = %v, want ErrNotDoublyStochastic", err)
	}
}

func TestDecomposeRejectsUnknownStrategy(t *testing.T) {
	m := mustMatrix(t, [][]int64{{1, 0}, {0, 1}})
	if _, err := DecomposeCtx(context.Background(), m, Strategy(99)); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestDecomposePaperExample(t *testing.T) {
	// The regularized matrix D'_ex from Fig. 2 of the paper: all entries 200,
	// DS value 600. It decomposes into exactly 3 permutations of coef 200.
	m := mustMatrix(t, [][]int64{
		{200, 200, 200},
		{200, 200, 200},
		{200, 200, 200},
	})
	terms, err := DecomposeCtx(context.Background(), m, MaxMin)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if len(terms) != 3 {
		t.Fatalf("got %d terms, want 3", len(terms))
	}
	for _, tm := range terms {
		if tm.Dur != 200 {
			t.Errorf("coef = %d, want 200", tm.Dur)
		}
	}
	back, err := Recompose(terms, 3)
	if err != nil {
		t.Fatalf("Recompose: %v", err)
	}
	if !back.Equal(m) {
		t.Errorf("recomposed:\n%vwant:\n%v", back, m)
	}
}

func TestDecomposeIdentityLike(t *testing.T) {
	m := mustMatrix(t, [][]int64{
		{7, 0, 0},
		{0, 7, 0},
		{0, 0, 7},
	})
	for _, s := range []Strategy{MaxMin, FirstFit} {
		terms, err := DecomposeCtx(context.Background(), m, s)
		if err != nil {
			t.Fatalf("strategy %d: %v", s, err)
		}
		if len(terms) != 1 || terms[0].Dur != 7 {
			t.Errorf("strategy %d: terms %+v, want single coef-7 term", s, terms)
		}
	}
}

func checkDecomposition(t *testing.T, m *matrix.Matrix, s Strategy) []Term {
	t.Helper()
	terms, err := DecomposeCtx(context.Background(), m, s)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	back, err := Recompose(terms, m.N())
	if err != nil {
		t.Fatalf("Recompose: %v", err)
	}
	if !back.Equal(m) {
		t.Fatalf("strategy %d: decomposition does not sum back to the input", s)
	}
	n := m.N()
	bound := n*n - 2*n + 2
	if n == 1 {
		bound = 1
	}
	if len(terms) > bound {
		t.Fatalf("strategy %d: %d terms exceeds Marcus–Ree bound %d", s, len(terms), bound)
	}
	for ti, tm := range terms {
		if tm.Dur < 1 {
			t.Fatalf("term %d has coefficient %d < 1", ti, tm.Dur)
		}
	}
	return terms
}

func TestDecomposeRandomStuffed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					m.Set(i, j, 1+rng.Int63n(300))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, 1)
		}
		ds := matrix.StuffPreferNonZero(m)
		checkDecomposition(t, ds, MaxMin)
		checkDecomposition(t, ds, FirstFit)
	}
}

func TestMaxMinNotWorseThanFirstFitOnUniform(t *testing.T) {
	// On a near-uniform matrix, max–min extraction keeps coefficients large;
	// its first coefficient must be at least FirstFit's.
	m := mustMatrix(t, [][]int64{
		{104, 109, 102},
		{103, 105, 107},
		{108, 101, 106},
	})
	ds := matrix.Stuff(m)
	mm := checkDecomposition(t, ds, MaxMin)
	ff := checkDecomposition(t, ds, FirstFit)
	if mm[0].Dur < ff[0].Dur {
		t.Errorf("max-min first coef %d < first-fit %d", mm[0].Dur, ff[0].Dur)
	}
	if len(mm) > len(ff) {
		t.Errorf("max-min produced %d terms, first-fit %d; expected max-min to need no more", len(mm), len(ff))
	}
}

func TestDecomposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					m.Set(i, j, 1+rng.Int63n(50))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, 2)
		}
		ds := matrix.Stuff(m)
		terms, err := DecomposeCtx(context.Background(), ds, MaxMin)
		if err != nil {
			return false
		}
		back, err := Recompose(terms, n)
		return err == nil && back.Equal(ds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestDecomposeInvariants is the randomized property suite for both
// strategies: the terms recompose exactly to the input, there are at most
// nnz(m) of them (each extraction zeroes at least one support entry), every
// coefficient is at least 1, and max–min coefficients are non-increasing
// across extraction steps (each subtraction only shrinks entries and
// support, so no later residual can hold a better bottleneck).
func TestDecomposeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(12)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.15+rng.Float64()*0.7 {
					m.Set(i, j, 1+rng.Int63n(1<<uint(1+rng.Intn(9))))
				}
			}
		}
		if m.IsZero() {
			m.Set(rng.Intn(n), rng.Intn(n), 1+rng.Int63n(100))
		}
		ds := matrix.StuffPreferNonZero(m)
		for _, s := range []Strategy{MaxMin, FirstFit} {
			terms, err := DecomposeCtx(context.Background(), ds, s)
			if err != nil {
				t.Fatalf("trial %d strategy %d: %v", trial, s, err)
			}
			back, err := Recompose(terms, n)
			if err != nil {
				t.Fatalf("trial %d strategy %d: Recompose: %v", trial, s, err)
			}
			if !back.Equal(ds) {
				t.Fatalf("trial %d strategy %d: Recompose(DecomposeCtx(context.Background(), m)) != m", trial, s)
			}
			if nnz := ds.NonZeros(); len(terms) > nnz {
				t.Fatalf("trial %d strategy %d: %d terms exceeds nnz %d", trial, s, len(terms), nnz)
			}
			for ti, tm := range terms {
				if tm.Dur < 1 {
					t.Fatalf("trial %d strategy %d: term %d coefficient %d < 1", trial, s, ti, tm.Dur)
				}
				if s == MaxMin && ti > 0 && tm.Dur > terms[ti-1].Dur {
					t.Fatalf("trial %d: max–min coefficient grew %d -> %d at term %d",
						trial, terms[ti-1].Dur, tm.Dur, ti)
				}
			}
		}
	}
}

func TestRecomposeValidation(t *testing.T) {
	if _, err := Recompose([]Term{{Perm: []int{0}, Dur: 1}}, 2); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := Recompose([]Term{{Perm: []int{0, 1}, Dur: 0}}, 2); err == nil {
		t.Error("zero coefficient accepted")
	}
	if _, err := Recompose(nil, 0); err == nil {
		t.Error("zero dimension accepted")
	}
}

// TestThresholdTrialCounters: a decomposition exports, once, how many of its
// terms tried the previous coefficient first (all but the first) and how
// many of those trials were hits. On grid-valued demand most are; the k-term
// path counts the same way.
func TestThresholdTrialCounters(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()

	m, _ := matrix.New(12)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			m.Set(i, j, 100*(1+rng.Int63n(3)))
		}
	}
	ds := matrix.StuffPreferNonZero(m)
	terms, err := DecomposeCtx(context.Background(), ds, MaxMin)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for i := 1; i < len(terms); i++ {
		if terms[i].Dur == terms[i-1].Dur {
			repeats++
		}
	}
	trials := reg.Counter("bvn_threshold_trials_total").Value()
	hits := reg.Counter("bvn_threshold_hits_total").Value()
	if trials != int64(len(terms)-1) || hits != int64(repeats) || hits == 0 {
		t.Fatalf("%d terms, %d repeating the previous coefficient: trials=%d hits=%d", len(terms), repeats, trials, hits)
	}
	if _, _, err := DecomposeK(context.Background(), ds, 3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("bvn_threshold_trials_total").Value(); got != trials+2 {
		t.Fatalf("three more terms added %d trials, want 2", got-trials)
	}
}
