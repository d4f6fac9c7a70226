package matching

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"reco/internal/matrix"
)

// --- Reference implementations -------------------------------------------
//
// These are the pre-engine algorithms, kept verbatim as test oracles: the
// recursive Hopcroft–Karp of the original Graph.MaxMatching and the
// binary-search bottleneck of the original BottleneckPerfect. The engine
// must agree with them — exactly, where the contract is "same matching",
// and on the bottleneck value, where many optimal matchings exist.

func refMaxMatching(n int, adj [][]int) (matchL []int, size int) {
	matchL = make([]int, n)
	matchR := make([]int, n)
	for i := range matchL {
		matchL[i] = -1
		matchR[i] = -1
	}
	const inf = int(^uint(0) >> 1)
	dist := make([]int, n)
	queue := make([]int, 0, n)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < n; u++ {
			if matchL[u] == -1 {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[u] {
				w := matchR[v]
				if w == -1 {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u int) bool
	dfs = func(u int) bool {
		for _, v := range adj[u] {
			w := matchR[v]
			if w == -1 || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		for u := 0; u < n; u++ {
			if matchL[u] == -1 && dfs(u) {
				size++
			}
		}
	}
	return matchL, size
}

func refSupportAdj(m *matrix.Matrix, threshold int64) [][]int {
	n := m.N()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := m.At(i, j); v > 0 && v >= threshold {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

func refPerfectAtLeast(m *matrix.Matrix, threshold int64) ([]int, bool) {
	perm, size := refMaxMatching(m.N(), refSupportAdj(m, threshold))
	return perm, size == m.N()
}

func refBottleneckPerfect(m *matrix.Matrix) ([]int, int64, bool) {
	n := m.N()
	values := make([]int64, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := m.At(i, j); v > 0 {
				values = append(values, v)
			}
		}
	}
	if len(values) == 0 {
		return nil, 0, false
	}
	sort.Slice(values, func(a, b int) bool { return values[a] < values[b] })
	dedup := values[:1]
	for _, v := range values[1:] {
		if v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	lo, hi := 0, len(dedup)-1
	var best []int
	var bestVal int64 = -1
	for lo <= hi {
		mid := (lo + hi) / 2
		perm, ok := refPerfectAtLeast(m, dedup[mid])
		if !ok {
			hi = mid - 1
			continue
		}
		best = perm
		bestVal = dedup[mid]
		lo = mid + 1
	}
	return best, bestVal, best != nil
}

// randomStuffed returns a seeded random sparse matrix stuffed doubly
// stochastic, the input shape BvN extraction sees.
func randomStuffed(rng *rand.Rand, n int, density float64, maxVal int64) *matrix.Matrix {
	m, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				m.Set(i, j, 1+rng.Int63n(maxVal))
			}
		}
	}
	if m.IsZero() {
		m.Set(0, 0, 1)
	}
	return matrix.StuffPreferNonZero(m)
}

// --- Differential tests ---------------------------------------------------

// TestGraphMatchesRecursiveReference pins the iterative DFS to the original
// recursion: on random graphs both must return the identical matching, not
// merely one of equal size — FirstFit decompositions and Solstice schedules
// depend on the exact permutations staying the same.
func TestGraphMatchesRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		adj := make([][]int, n)
		g := NewGraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.35 {
					adj[u] = append(adj[u], v)
					g.AddEdge(u, v)
				}
			}
		}
		wantPerm, wantSize := refMaxMatching(n, adj)
		gotPerm, gotSize := g.MaxMatching()
		if gotSize != wantSize {
			t.Fatalf("trial %d: size %d, reference %d", trial, gotSize, wantSize)
		}
		for u := range wantPerm {
			if gotPerm[u] != wantPerm[u] {
				t.Fatalf("trial %d: matchL[%d] = %d, reference %d", trial, u, gotPerm[u], wantPerm[u])
			}
		}
	}
}

// TestBottleneckPerfectDifferential proves the threshold-descending engine
// equivalent to the binary-search implementation it replaced, on well over
// 100 seeded random stuffed matrices: the bottleneck value AND the returned
// permutation are identical (the canonical rematch pins tie-breaking to the
// old behaviour, keeping committed experiment tables stable), and the
// matching is independently checked to be perfect and achieve the value.
func TestBottleneckPerfectDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 0
	for _, n := range []int{2, 3, 4, 6, 8, 12, 16, 24, 32} {
		for rep := 0; rep < 16; rep++ {
			trials++
			density := 0.1 + rng.Float64()*0.8
			maxVal := int64(1) << uint(1+rng.Intn(10))
			m := randomStuffed(rng, n, density, maxVal)
			wantPerm, wantVal, ok := refBottleneckPerfect(m)
			if !ok {
				t.Fatalf("n=%d rep=%d: reference found no perfect matching on a stuffed matrix", n, rep)
			}
			perm, val, err := BottleneckPerfect(m)
			if err != nil {
				t.Fatalf("n=%d rep=%d: BottleneckPerfect: %v", n, rep, err)
			}
			if val != wantVal {
				t.Fatalf("n=%d rep=%d: bottleneck %d, reference %d", n, rep, val, wantVal)
			}
			if !slices.Equal(perm, wantPerm) {
				t.Fatalf("n=%d rep=%d: perm %v, reference %v", n, rep, perm, wantPerm)
			}
			checkPerfectAbove(t, m, perm, val)
		}
	}
	if trials < 100 {
		t.Fatalf("only %d differential trials, want >= 100", trials)
	}
}

// checkPerfectAbove asserts perm is a perfect matching of m whose entries
// are all >= val with minimum exactly val.
func checkPerfectAbove(t *testing.T, m *matrix.Matrix, perm []int, val int64) {
	t.Helper()
	n := m.N()
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	min := int64(-1)
	for i, j := range perm {
		if j < 0 || j >= n || seen[j] {
			t.Fatalf("perm is not a permutation: row %d -> %d", i, j)
		}
		seen[j] = true
		v := m.At(i, j)
		if v < val {
			t.Fatalf("matched entry (%d,%d)=%d below bottleneck %d", i, j, v, val)
		}
		if min == -1 || v < min {
			min = v
		}
	}
	if min != val {
		t.Fatalf("minimum matched entry %d, reported bottleneck %d", min, val)
	}
}

// TestExtractAnyMatchesReference pins RowMajor ExtractAny to the old
// first-fit path: repeatedly matching the residual's row-major support from
// scratch. The whole extraction sequence must agree permutation for
// permutation, because committed experiment results depend on it.
func TestExtractAnyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		m := randomStuffed(rng, n, 0.5, 64)
		eng := NewEngine(m, RowMajor)
		res := m.Clone()
		for step := 0; !res.IsZero(); step++ {
			wantPerm, ok := refPerfectAtLeast(res, 1)
			if !ok {
				t.Fatalf("trial %d step %d: reference stuck", trial, step)
			}
			wantCoef := int64(-1)
			for i, j := range wantPerm {
				if v := res.At(i, j); wantCoef == -1 || v < wantCoef {
					wantCoef = v
				}
			}
			perm, coef, err := eng.ExtractAny()
			if err != nil {
				t.Fatalf("trial %d step %d: ExtractAny: %v", trial, step, err)
			}
			if coef != wantCoef {
				t.Fatalf("trial %d step %d: coef %d, reference %d", trial, step, coef, wantCoef)
			}
			for u := range wantPerm {
				if perm[u] != wantPerm[u] {
					t.Fatalf("trial %d step %d: perm[%d] = %d, reference %d", trial, step, u, perm[u], wantPerm[u])
				}
			}
			for i, j := range wantPerm {
				res.Add(i, j, -wantCoef)
			}
		}
		if eng.Remaining() != 0 || eng.Support() != 0 {
			t.Fatalf("trial %d: engine reports remaining=%d support=%d after drain", trial, eng.Remaining(), eng.Support())
		}
	}
}

// TestEngineExtractDecomposes drives Extract to exhaustion and checks the
// full decomposition contract: terms sum back to the input, coefficients
// are positive and non-increasing, and each term's matched entries meet its
// bottleneck.
func TestEngineExtractDecomposes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(12)
		m := randomStuffed(rng, n, 0.4, 512)
		eng := NewEngine(m, Descending)
		sum, _ := matrix.New(n)
		prevCoef := int64(-1)
		steps := 0
		for eng.Remaining() > 0 {
			res := residual(m, sum)
			_, wantVal, ok := refBottleneckPerfect(res)
			if !ok {
				t.Fatalf("trial %d step %d: reference found no matching", trial, steps)
			}
			perm, coef, err := eng.Extract()
			if err != nil {
				t.Fatalf("trial %d step %d: Extract: %v", trial, steps, err)
			}
			if coef != wantVal {
				t.Fatalf("trial %d step %d: coef %d, reference bottleneck %d", trial, steps, coef, wantVal)
			}
			checkPerfectAbove(t, res, perm, coef)
			if prevCoef != -1 && coef > prevCoef {
				t.Fatalf("trial %d step %d: coefficient %d grew past previous %d", trial, steps, coef, prevCoef)
			}
			prevCoef = coef
			for i, j := range perm {
				sum.Add(i, j, coef)
			}
			steps++
			if steps > n*n {
				t.Fatalf("trial %d: extraction did not terminate", trial)
			}
		}
		if !sum.Equal(m) {
			t.Fatalf("trial %d: terms do not sum back to the input", trial)
		}
	}
}

func residual(m, sub *matrix.Matrix) *matrix.Matrix {
	res := m.Clone()
	n := m.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			res.Add(i, j, -sub.At(i, j))
		}
	}
	return res
}

// TestEngineReset checks that a recycled engine carries no state across
// Reset: extracting from one matrix and resetting onto another must behave
// exactly like a fresh engine.
func TestEngineReset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	eng := new(Engine)
	for trial := 0; trial < 40; trial++ {
		m := randomStuffed(rng, 2+rng.Intn(8), 0.5, 128)
		eng.Reset(m, Descending)
		got, gotVal, err := eng.Bottleneck()
		if err != nil {
			t.Fatalf("trial %d: Bottleneck: %v", trial, err)
		}
		fresh := NewEngine(m, Descending)
		want, wantVal, err := fresh.Bottleneck()
		if err != nil {
			t.Fatalf("trial %d: fresh Bottleneck: %v", trial, err)
		}
		if gotVal != wantVal {
			t.Fatalf("trial %d: recycled value %d, fresh %d", trial, gotVal, wantVal)
		}
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("trial %d: recycled perm[%d]=%d, fresh %d", trial, u, got[u], want[u])
			}
		}
		// Burn some extractions so the next Reset starts from a dirty state.
		if eng.Remaining() > 0 {
			if _, _, err := eng.Extract(); err != nil {
				t.Fatalf("trial %d: Extract: %v", trial, err)
			}
		}
	}
}

// TestEngineNoPerfectMatching covers the failure paths: deficient support
// and empty support.
func TestEngineNoPerfectMatching(t *testing.T) {
	m := mustMatrix(t, [][]int64{
		{1, 1, 0},
		{1, 1, 0},
		{1, 1, 0},
	})
	for _, order := range []Order{Descending, RowMajor} {
		eng := NewEngine(m, order)
		var err error
		if order == Descending {
			_, _, err = eng.Bottleneck()
		} else {
			_, _, err = eng.ExtractAny()
		}
		if !errors.Is(err, ErrNoPerfectMatching) {
			t.Errorf("order %d: err = %v, want ErrNoPerfectMatching", order, err)
		}
	}
	z, _ := matrix.New(3)
	if _, _, err := NewEngine(z, Descending).Bottleneck(); !errors.Is(err, ErrNoPerfectMatching) {
		t.Errorf("empty support err = %v, want ErrNoPerfectMatching", err)
	}
}

// checkExtractSequence drives Extract over m until the support has no
// perfect matching left and requires every step to agree with the
// binary-search reference on the residual: the coefficient and the
// permutation itself, not merely a permutation that achieves the value.
// It returns the number of terms extracted.
func checkExtractSequence(t *testing.T, name string, m *matrix.Matrix) int {
	t.Helper()
	n := m.N()
	eng := NewEngine(m, Descending)
	res := m.Clone()
	for step := 0; ; step++ {
		wantPerm, wantVal, ok := refBottleneckPerfect(res)
		perm, coef, err := eng.Extract()
		if !ok {
			if !errors.Is(err, ErrNoPerfectMatching) {
				t.Fatalf("%s step %d: err = %v on a support with no perfect matching", name, step, err)
			}
			return step
		}
		if err != nil {
			t.Fatalf("%s step %d: Extract: %v", name, step, err)
		}
		if coef != wantVal {
			t.Fatalf("%s step %d: coef %d, reference %d", name, step, coef, wantVal)
		}
		if !slices.Equal(perm, wantPerm) {
			t.Fatalf("%s step %d: perm %v, reference %v", name, step, perm, wantPerm)
		}
		for i, j := range perm {
			res.Add(i, j, -coef)
		}
		if got, want := eng.Remaining(), res.Total(); got != want {
			t.Fatalf("%s step %d: Remaining %d, residual total %d", name, step, got, want)
		}
		if step > n*n {
			t.Fatalf("%s: extraction did not terminate", name)
		}
	}
}

// gridStuffed returns a stuffed matrix with about perRow positive entries
// per row, every entry a multiple of delta: the shape regularization hands
// the decomposition, where consecutive terms mostly share their bottleneck.
func gridStuffed(rng *rand.Rand, n, perRow int, delta int64) *matrix.Matrix {
	m, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for e := 0; e < perRow; e++ {
			m.Set(i, rng.Intn(n), delta*(1+rng.Int63n(6)))
		}
	}
	return matrix.StuffPreferNonZero(m)
}

// unstuffedSparse returns a matrix that is not doubly stochastic: a random
// permutation (so a perfect matching exists) plus about perRow more cells
// per row, all values different. Its run ends early, at a support that has
// no perfect matching left.
func unstuffedSparse(rng *rand.Rand, n, perRow int) *matrix.Matrix {
	m, _ := matrix.New(n)
	vals := rng.Perm(n * (perRow + 1))
	for i, j := range rng.Perm(n) {
		m.Set(i, j, int64(1+vals[i]))
	}
	for i := 0; i < n; i++ {
		for e := 0; e < perRow; e++ {
			m.Set(i, rng.Intn(n), int64(1+vals[n+i*perRow+e]))
		}
	}
	return m
}

// TestEngineExtractSequenceMatchesReference pins the whole permutation
// sequence of a max–min decomposition to the reference, at the dimensions
// around the bitset word boundaries and on the value shapes that take the
// engine down its two routes: grid values, where a term usually repeats the
// previous coefficient, and all-different values, where it almost never
// does — stuffed, so the run is a full decomposition, and unstuffed, so it
// ends in ErrNoPerfectMatching.
func TestEngineExtractSequenceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		perRow := min(n, 4)
		inputs := []struct {
			name string
			m    *matrix.Matrix
		}{
			{"grid", gridStuffed(rng, n, perRow, 100)},
			// Row sums up to 2⁶¹/n: a small n puts entries near 2⁶¹, where
			// the queue's bucket index comes from the high bits.
			{"grid-high", gridStuffed(rng, n, perRow, (1<<61)/int64(6*perRow*n))},
			{"distinct", randomStuffed(rng, n, float64(perRow)/float64(n), 1<<40)},
			{"unstuffed", unstuffedSparse(rng, n, perRow)},
		}
		for _, in := range inputs {
			name := fmt.Sprintf("%s/n=%d", in.name, n)
			if terms := checkExtractSequence(t, name, in.m); terms == 0 {
				t.Fatalf("%s: no terms extracted", name)
			}
		}
	}
	checkExtractSequence(t, "dense-grid/n=24", gridStuffed(rng, 24, 40, 10))
	checkExtractSequence(t, "sparse/n=128", randomStuffed(rng, 128, 0.02, 1000))
}

// TestEngineReuseCarriesNothingOver is TestEngineReset for what a pool hands
// out: one Engine reused across matrices whose dimension grows and shrinks
// across the word boundary, Descending and RowMajor alternating, every third
// decomposition abandoned midway as a cancelled request leaves it. Each run
// must match a fresh engine term for term.
func TestEngineReuseCarriesNothingOver(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eng := new(Engine)
	extract := func(e *Engine, order Order) ([]int, int64, error) {
		if order == Descending {
			return e.Extract()
		}
		return e.ExtractAny()
	}
	sizes := []int{3, 70, 9, 64, 2, 130, 65, 5, 33, 128, 1, 17}
	for trial := 0; trial < 3*len(sizes); trial++ {
		n := sizes[trial%len(sizes)]
		order := Order(trial % 2)
		var m *matrix.Matrix
		if trial%4 < 2 {
			m = gridStuffed(rng, n, min(n, 5), 10)
		} else {
			m = randomStuffed(rng, n, min(1, 5/float64(n)), 1000)
		}
		eng.Reset(m, order)
		fresh := NewEngine(m, order)
		stopAfter := -1
		if trial%3 == 2 {
			stopAfter = 1 + rng.Intn(4)
		}
		for step := 0; fresh.Remaining() > 0 && step != stopAfter; step++ {
			want, wantCoef, err := extract(fresh, order)
			if err != nil {
				t.Fatalf("trial %d step %d: fresh engine: %v", trial, step, err)
			}
			got, coef, err := extract(eng, order)
			if err != nil {
				t.Fatalf("trial %d step %d: reused engine: %v", trial, step, err)
			}
			if coef != wantCoef || !slices.Equal(got, want) {
				t.Fatalf("trial %d (n=%d order=%d) step %d: reused engine gave %d·%v, fresh %d·%v",
					trial, n, order, step, coef, got, wantCoef, want)
			}
		}
		if eng.Remaining() != fresh.Remaining() || eng.Support() != fresh.Support() {
			t.Fatalf("trial %d: reused engine at remaining=%d support=%d, fresh %d, %d",
				trial, eng.Remaining(), eng.Support(), fresh.Remaining(), fresh.Support())
		}
	}
}

// TestDescQueueMatchesSortReference drives the radix queue with seeded
// pushes and pops that keep its monotone contract — no value pushed exceeds
// the last one popped — and checks every pop against a sorted reference: it
// must hand out exactly the queued cells of the largest value left. Values
// come from the edges of the bucket arithmetic (1, 2^k−1, 2^k, 2^k+1 and
// math.MaxInt64), from anywhere below the limit, and in long runs of one
// value.
func TestDescQueueMatchesSortReference(t *testing.T) {
	edges := []int64{1, math.MaxInt64}
	for k := 1; k < 63; k++ {
		edges = append(edges, 1<<k-1, 1<<k, 1<<k+1)
	}
	rng := rand.New(rand.NewSource(36))
	const cells = 600
	vals := make([]int64, cells)
	var q descQueue
	for trial := 0; trial < 300; trial++ {
		limit := edges[rng.Intn(len(edges))]
		q.reset(vals, limit)
		draw := func() int64 {
			switch rng.Intn(4) {
			case 0:
				if w := edges[rng.Intn(len(edges))]; w <= limit {
					return w
				}
			case 1:
				return limit - min(limit-1, rng.Int63n(4))
			}
			return 1 + rng.Int63n(limit)
		}
		var left []int32 // the reference: every cell queued and not popped
		pushed, pops := 0, 0
		for pushed < cells || len(left) > 0 {
			if pushed < cells && (len(left) == 0 || rng.Intn(3) > 0) {
				w, run := draw(), 1
				if rng.Intn(4) == 0 {
					run += rng.Intn(60)
				}
				for ; run > 0 && pushed < cells; run-- {
					vals[pushed] = w
					q.push(int32(pushed))
					left = append(left, int32(pushed))
					pushed++
				}
				continue
			}
			top := int64(0)
			for _, k := range left {
				top = max(top, vals[k])
			}
			var want, got []int32
			left = slices.DeleteFunc(left, func(k int32) bool {
				if vals[k] == top {
					want = append(want, k)
					return true
				}
				return false
			})
			w, k := q.pop()
			for ; k >= 0; k = q.next[k] {
				got = append(got, k)
			}
			slices.Sort(got)
			if w != top || !slices.Equal(got, want) {
				t.Fatalf("trial %d pop %d: got value %d cells %v, want %d cells %v", trial, pops, w, got, top, want)
			}
			limit = w
			pops++
		}
		if w, k := q.pop(); k >= 0 {
			t.Fatalf("trial %d: empty queue popped value %d cell %d", trial, w, k)
		}
	}
}
