package matching

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

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

func TestMaxMatchingSimple(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 2)
	match, size := g.MaxMatching()
	if size != 3 {
		t.Fatalf("size = %d, want 3", size)
	}
	checkValidMatching(t, match, size)
}

func TestMaxMatchingDeficient(t *testing.T) {
	// Rows 0 and 1 both only reach column 0: max matching is 2 of 3.
	g := NewGraph(3)
	g.AddEdge(0, 0)
	g.AddEdge(1, 0)
	g.AddEdge(2, 1)
	_, size := g.MaxMatching()
	if size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
}

func TestMaxMatchingEmpty(t *testing.T) {
	g := NewGraph(4)
	match, size := g.MaxMatching()
	if size != 0 {
		t.Fatalf("size = %d, want 0", size)
	}
	for u, v := range match {
		if v != -1 {
			t.Errorf("match[%d] = %d, want -1", u, v)
		}
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddEdge with bad right vertex did not panic")
		}
	}()
	NewGraph(2).AddEdge(0, 5)
}

func checkValidMatching(t *testing.T, match []int, wantSize int) {
	t.Helper()
	seen := make(map[int]bool)
	size := 0
	for _, v := range match {
		if v == -1 {
			continue
		}
		if seen[v] {
			t.Fatalf("column %d matched twice", v)
		}
		seen[v] = true
		size++
	}
	if size != wantSize {
		t.Fatalf("matching size %d, want %d", size, wantSize)
	}
}

// bruteMaxMatching enumerates all permutations to find the true maximum
// matching size of the support graph, for cross-checking on small n.
func bruteMaxMatching(adj [][]bool) int {
	n := len(adj)
	best := 0
	usedCols := make([]bool, n)
	var rec func(row, count int)
	rec = func(row, count int) {
		if count > best {
			best = count
		}
		if row == n {
			return
		}
		rec(row+1, count) // leave row unmatched
		for j := 0; j < n; j++ {
			if adj[row][j] && !usedCols[j] {
				usedCols[j] = true
				rec(row+1, count+1)
				usedCols[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestMaxMatchingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		adj := make([][]bool, n)
		g := NewGraph(n)
		for i := range adj {
			adj[i] = make([]bool, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					adj[i][j] = true
					g.AddEdge(i, j)
				}
			}
		}
		match, size := g.MaxMatching()
		checkValidMatching(t, match, size)
		if want := bruteMaxMatching(adj); size != want {
			t.Fatalf("trial %d: HK size %d, brute force %d", trial, size, want)
		}
	}
}

func TestBottleneckPerfect(t *testing.T) {
	m := mustMatrix(t, [][]int64{
		{9, 1, 0},
		{0, 8, 3},
		{4, 0, 7},
	})
	perm, val, err := BottleneckPerfect(m)
	if err != nil {
		t.Fatalf("BottleneckPerfect: %v", err)
	}
	// Diagonal gives min 7; no matching does better.
	if val != 7 {
		t.Errorf("bottleneck = %d, want 7", val)
	}
	for i, j := range perm {
		if m.At(i, j) < val {
			t.Errorf("edge (%d,%d)=%d below bottleneck %d", i, j, m.At(i, j), val)
		}
	}
}

func TestBottleneckPerfectErrors(t *testing.T) {
	z, _ := matrix.New(3)
	if _, _, err := BottleneckPerfect(z); !errors.Is(err, ErrNoPerfectMatching) {
		t.Errorf("zero matrix err = %v, want ErrNoPerfectMatching", err)
	}
	// Support without a perfect matching: column 2 unreachable.
	m := mustMatrix(t, [][]int64{
		{1, 1, 0},
		{1, 1, 0},
		{1, 1, 0},
	})
	if _, _, err := BottleneckPerfect(m); !errors.Is(err, ErrNoPerfectMatching) {
		t.Errorf("deficient support err = %v, want ErrNoPerfectMatching", err)
	}
}

func TestBottleneckOnDoublyStochastic(t *testing.T) {
	// Property: stuffed matrices always admit a perfect matching whose
	// bottleneck is at least 1 (Birkhoff's theorem).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					m.Set(i, j, 1+rng.Int63n(100))
				}
			}
		}
		if m.IsZero() {
			m.Set(0, 0, 1)
		}
		ds := matrix.Stuff(m)
		perm, val, err := BottleneckPerfect(ds)
		if err != nil || val < 1 {
			return false
		}
		for i, j := range perm {
			if ds.At(i, j) < val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func bruteMaxWeight(m *matrix.Matrix) int64 {
	n := m.N()
	best := int64(-1)
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int, sum int64)
	rec = func(i int, sum int64) {
		if i == n {
			if sum > best {
				best = sum
			}
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				perm[i] = j
				rec(i+1, sum+m.At(i, j))
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestMaxWeightPerfectAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(6)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.Int63n(50))
			}
		}
		perm, total := MaxWeightPerfect(m)
		checkValidMatching(t, perm, n)
		var sum int64
		for i, j := range perm {
			sum += m.At(i, j)
		}
		if sum != total {
			t.Fatalf("trial %d: reported total %d != recomputed %d", trial, total, sum)
		}
		if want := bruteMaxWeight(m); total != want {
			t.Fatalf("trial %d: Hungarian total %d, brute force %d", trial, total, want)
		}
	}
}
