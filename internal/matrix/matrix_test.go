package matrix

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustFromRows(t *testing.T, rows [][]int64) *Matrix {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestNewRejectsBadDimension(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := New(n); !errors.Is(err, ErrDimension) {
			t.Errorf("New(%d): got err %v, want ErrDimension", n, err)
		}
	}
}

func TestFromRowsValidation(t *testing.T) {
	tests := []struct {
		name    string
		rows    [][]int64
		wantErr error
	}{
		{"empty", nil, ErrDimension},
		{"ragged", [][]int64{{1, 2}, {3}}, ErrDimension},
		{"nonsquare", [][]int64{{1, 2, 3}, {4, 5, 6}}, ErrDimension},
		{"negative", [][]int64{{1, -2}, {3, 4}}, ErrNegative},
		{"ok", [][]int64{{1, 2}, {3, 4}}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := FromRows(tt.rows)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("got err %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestAccessors(t *testing.T) {
	m := mustFromRows(t, [][]int64{
		{4, 0, 2},
		{0, 5, 0},
		{1, 0, 3},
	})
	if got := m.N(); got != 3 {
		t.Errorf("N = %d, want 3", got)
	}
	if got := m.At(0, 2); got != 2 {
		t.Errorf("At(0,2) = %d, want 2", got)
	}
	m.Set(1, 0, 7)
	m.Add(1, 0, 1)
	if got := m.At(1, 0); got != 8 {
		t.Errorf("after Set+Add, At(1,0) = %d, want 8", got)
	}
}

func TestSums(t *testing.T) {
	m := mustFromRows(t, [][]int64{
		{4, 0, 2},
		{0, 5, 0},
		{1, 0, 3},
	})
	wantRows := []int64{6, 5, 4}
	wantCols := []int64{5, 5, 5}
	for i, s := range m.RowSums() {
		if s != wantRows[i] {
			t.Errorf("row %d sum = %d, want %d", i, s, wantRows[i])
		}
	}
	for j, s := range m.ColSums() {
		if s != wantCols[j] {
			t.Errorf("col %d sum = %d, want %d", j, s, wantCols[j])
		}
	}
	if got := m.MaxRowColSum(); got != 6 {
		t.Errorf("rho = %d, want 6", got)
	}
	if got := m.MaxRowColNonZeros(); got != 2 {
		t.Errorf("tau = %d, want 2", got)
	}
}

func TestScalarProperties(t *testing.T) {
	m := mustFromRows(t, [][]int64{
		{4, 0},
		{0, 3},
	})
	if got := m.NonZeros(); got != 2 {
		t.Errorf("NonZeros = %d, want 2", got)
	}
	if got := m.Density(); got != 0.5 {
		t.Errorf("Density = %v, want 0.5", got)
	}
	if got := m.Total(); got != 7 {
		t.Errorf("Total = %d, want 7", got)
	}
	if got := m.MaxEntry(); got != 4 {
		t.Errorf("MaxEntry = %d, want 4", got)
	}
	if m.IsZero() {
		t.Error("IsZero = true for non-zero matrix")
	}
	z, _ := New(2)
	if !z.IsZero() {
		t.Error("IsZero = false for zero matrix")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := mustFromRows(t, [][]int64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with the original")
	}
	if !m.Equal(m.Clone()) {
		t.Error("matrix not Equal to its own clone")
	}
	if m.Equal(c) {
		t.Error("modified clone still Equal to original")
	}
	if m.Equal(nil) {
		t.Error("Equal(nil) should be false")
	}
}

func TestDoublyStochasticValue(t *testing.T) {
	ds := mustFromRows(t, [][]int64{
		{3, 2},
		{2, 3},
	})
	v, ok := ds.DoublyStochasticValue()
	if !ok || v != 5 {
		t.Errorf("DoublyStochasticValue = (%d,%v), want (5,true)", v, ok)
	}
	not := mustFromRows(t, [][]int64{
		{3, 2},
		{2, 4},
	})
	if _, ok := not.DoublyStochasticValue(); ok {
		t.Error("non-DS matrix reported as doubly stochastic")
	}
}

func TestSum(t *testing.T) {
	a := mustFromRows(t, [][]int64{{1, 0}, {0, 1}})
	b := mustFromRows(t, [][]int64{{0, 2}, {3, 0}})
	s, err := Sum([]*Matrix{a, b})
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	want := mustFromRows(t, [][]int64{{1, 2}, {3, 1}})
	if !s.Equal(want) {
		t.Errorf("Sum:\n%vwant:\n%v", s, want)
	}
	if _, err := Sum(nil); !errors.Is(err, ErrDimension) {
		t.Errorf("Sum(nil) err = %v, want ErrDimension", err)
	}
	c := mustFromRows(t, [][]int64{{1}})
	if _, err := Sum([]*Matrix{a, c}); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatched Sum err = %v, want ErrDimension", err)
	}
}

func TestString(t *testing.T) {
	m := mustFromRows(t, [][]int64{{1, 2}, {3, 4}})
	if got, want := m.String(), "1 2\n3 4\n"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func randomMatrix(rng *rand.Rand, n int, maxVal int64, fill float64) *Matrix {
	m, _ := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				m.Set(i, j, 1+rng.Int63n(maxVal))
			}
		}
	}
	return m
}

func checkStuffed(t *testing.T, name string, orig, stuffed *Matrix) {
	t.Helper()
	rho := orig.MaxRowColSum()
	v, ok := stuffed.DoublyStochasticValue()
	if !ok {
		t.Fatalf("%s: result is not doubly stochastic", name)
	}
	if v != rho {
		t.Fatalf("%s: DS value = %d, want rho = %d", name, v, rho)
	}
	for i := 0; i < orig.N(); i++ {
		for j := 0; j < orig.N(); j++ {
			if stuffed.At(i, j) < orig.At(i, j) {
				t.Fatalf("%s: stuffing decreased entry (%d,%d)", name, i, j)
			}
		}
	}
}

func TestStuffVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		m := randomMatrix(rng, n, 1000, 0.4)
		if m.IsZero() {
			m.Set(0, 0, 5)
		}
		checkStuffed(t, "Stuff", m, Stuff(m))
		checkStuffed(t, "StuffPreferNonZero", m, StuffPreferNonZero(m))
	}
}

func TestStuffPreferNonZeroKeepsSupportSmall(t *testing.T) {
	// One heavy row: balanced stuffing must add entries somewhere, but the
	// prefer-non-zero variant should top up the existing support first.
	m := mustFromRows(t, [][]int64{
		{10, 10, 10},
		{5, 0, 0},
		{0, 5, 0},
	})
	plain := Stuff(m)
	pref := StuffPreferNonZero(m)
	if pref.NonZeros() > plain.NonZeros() {
		t.Errorf("prefer-non-zero support %d > balanced support %d", pref.NonZeros(), plain.NonZeros())
	}
	checkStuffed(t, "pref", m, pref)
}

func TestStuffProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		m := randomMatrix(rng, n, 500, 0.5)
		if m.IsZero() {
			m.Set(0, 0, 1)
		}
		s := StuffPreferNonZero(m)
		v, ok := s.DoublyStochasticValue()
		return ok && v == m.MaxRowColSum() && !s.HasNegative()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestForEachNonZero: the skip-zero iterator visits exactly the positive
// entries in row-major order, and AppendNonZeros materializes the same walk
// into a reusable buffer.
func TestForEachNonZero(t *testing.T) {
	z, _ := New(3)
	z.ForEachNonZero(func(i, j int, v int64) {
		t.Errorf("zero matrix visited (%d,%d)=%d", i, j, v)
	})
	if cells := z.AppendNonZeros(nil); len(cells) != 0 {
		t.Errorf("zero matrix yielded %d cells", len(cells))
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		m := randomMatrix(rng, n, 500, 0.4)

		var cells []Cell
		m.ForEachNonZero(func(i, j int, v int64) {
			cells = append(cells, Cell{I: i, J: j, V: v})
		})
		if len(cells) != m.NonZeros() {
			return false
		}
		var total int64
		for u, c := range cells {
			if c.V <= 0 || m.At(c.I, c.J) != c.V {
				return false
			}
			if u > 0 { // row-major order, strictly increasing
				p := cells[u-1]
				if p.I*n+p.J >= c.I*n+c.J {
					return false
				}
			}
			total += c.V
		}
		if total != m.Total() {
			return false
		}
		// AppendNonZeros reuses the buffer and matches the callback walk.
		buf := make([]Cell, 2, 8)
		got := m.AppendNonZeros(buf[:0])
		if len(got) != len(cells) {
			return false
		}
		for u := range got {
			if got[u] != cells[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// denseScan computes a matrix's summary from scratch through At, the way the
// accessors did before a matrix could carry one.
func denseScan(m *Matrix) Summary {
	n := m.N()
	var s Summary
	rowCnt, colCnt := make([]int, n), make([]int, n)
	rowSum, colSum := make([]int64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := m.At(i, j)
			s.Total += v
			s.MaxEntry = max(s.MaxEntry, v)
			rowSum[i] += v
			colSum[j] += v
			if v > 0 {
				s.NonZeros++
				rowCnt[i]++
				colCnt[j]++
			}
		}
	}
	for i := 0; i < n; i++ {
		s.Rho = max(s.Rho, rowSum[i], colSum[i])
		s.Tau = max(s.Tau, rowCnt[i], colCnt[i])
	}
	return s
}

// TestSummaryMatchesDenseScan: a carried summary can never go stale. Random
// pooled matrices — half of them given a summary, as the request parser's are —
// go through random sequences of every mutator and copier, and after every
// step each accessor a summary can answer agrees with a from-scratch scan.
func TestSummaryMatchesDenseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	random := func(n int) *Matrix {
		cells := make([]int64, n*n)
		for idx := range cells {
			if rng.Intn(3) == 0 {
				cells[idx] = 1 + rng.Int63n(50)
			}
		}
		m := Acquire(n)
		copy(m.Cells(), cells)
		summed := rng.Intn(2) == 0
		if summed {
			m.SetSummary(denseScan(m))
		}
		if _, ok := m.Summary(); ok != summed {
			t.Fatalf("SetSummary called %v: carried = %v", summed, ok)
		}
		return m
	}
	check := func(step string, m *Matrix) {
		t.Helper()
		want := denseScan(m)
		rho, ok := m.CheckedMaxRowColSum()
		got := Summary{
			Rho: m.MaxRowColSum(), Tau: m.MaxRowColNonZeros(), Total: m.Total(),
			NonZeros: m.NonZeros(), MaxEntry: m.MaxEntry(),
		}
		if got != want || rho != want.Rho || !ok || m.IsZero() != (want.NonZeros == 0) {
			t.Fatalf("after %s: accessors say %+v (checked rho %d, %v; IsZero %v), a dense scan %+v\n%v",
				step, got, rho, ok, m.IsZero(), want, m)
		}
		if s, carried := m.Summary(); carried && s != want {
			t.Fatalf("after %s: carried summary %+v is stale, a dense scan gives %+v", step, s, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := random(n)
		check("construction", m)
		for step := 0; step < 12; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			switch op := rng.Intn(8); op {
			case 0:
				m.Set(i, j, rng.Int63n(60))
				check("Set", m)
			case 1:
				m.Add(i, j, rng.Int63n(60))
				check("Add", m)
			case 2:
				m.Add(i, j, -m.At(i, j)/2)
				check("Add of a negative amount", m)
			case 3:
				m = AcquireClone(random(n))
				check("AcquireClone", m)
			case 4:
				c := m.Clone()
				check("Clone", c)
				c.Set(i, j, m.At(i, j)+1)
				check("Set on a clone", c)
				check("Set on its clone", m)
				m = c
			case 5:
				m = Stuff(m)
				check("Stuff", m)
			case 6:
				m = StuffPreferNonZero(m)
				check("StuffPreferNonZero", m)
			case 7:
				s, err := Sum([]*Matrix{m, random(n)})
				if err != nil {
					t.Fatal(err)
				}
				m = s
				check("Sum", m)
			}
		}
	}
	// A summary that says a sum overflowed is kept for the refusal and never
	// answers for ρ; the scan behind the checked ρ refuses the same cells.
	big := int64(1) << 62
	plain := mustFromRows(t, [][]int64{{big, big}, {1, 1}})
	m := plain.Clone()
	m.SetSummary(Summary{Rho: -1, Tau: 2, Total: 2*big + 2, NonZeros: 4, MaxEntry: big, Overflow: true})
	if _, ok := m.CheckedMaxRowColSum(); ok {
		t.Error("an overflowing summary passed the checked ρ")
	}
	if _, ok := plain.CheckedMaxRowColSum(); ok {
		t.Error("the scan behind the checked ρ missed an overflowing row")
	}
	if m.MaxRowColSum() != plain.MaxRowColSum() {
		t.Error("MaxRowColSum of an overflowing summary differs from the scan's")
	}
}
