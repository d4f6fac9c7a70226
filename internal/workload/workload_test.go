package workload

import (
	"errors"
	"math"
	"strings"
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

func TestClassify(t *testing.T) {
	n := 10
	sparse, _ := matrix.New(n)
	sparse.Set(0, 0, 5) // density 0.01
	if got := Classify(sparse); got != Sparse {
		t.Errorf("Classify sparse = %v", got)
	}
	normal, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			normal.Set(i, j, 1) // density 0.2
		}
	}
	if got := Classify(normal); got != Normal {
		t.Errorf("Classify normal = %v", got)
	}
	dense, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				dense.Set(i, j, 1) // density 0.9
			}
		}
	}
	if got := Classify(dense); got != Dense {
		t.Errorf("Classify dense = %v", got)
	}
}

func TestClassifyMode(t *testing.T) {
	tests := []struct {
		name string
		rows [][]int64
		want Mode
	}{
		{"s2s", [][]int64{{0, 5, 0}, {0, 0, 0}, {0, 0, 0}}, S2S},
		{"s2m", [][]int64{{0, 5, 5}, {0, 0, 0}, {0, 0, 0}}, S2M},
		{"m2s", [][]int64{{0, 5, 0}, {0, 5, 0}, {0, 0, 0}}, M2S},
		{"m2m", [][]int64{{5, 5, 0}, {0, 5, 0}, {0, 0, 0}}, M2M},
		{"empty", [][]int64{{0, 0}, {0, 0}}, S2S},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClassifyMode(mustMatrix(t, tt.rows)); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestClassAndModeStrings(t *testing.T) {
	if Sparse.String() != "sparse" || Dense.String() != "dense" || Normal.String() != "normal" {
		t.Error("class names wrong")
	}
	if S2S.String() != "S2S" || M2M.String() != "M2M" {
		t.Error("mode names wrong")
	}
	if !strings.Contains(Class(9).String(), "9") || !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown enum rendering wrong")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{N: 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("tiny N accepted: %v", err)
	}
	if _, err := Generate(GenConfig{NumCoflows: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative coflows accepted: %v", err)
	}
	if _, err := Generate(GenConfig{MinDemand: 100, MeanDemand: 10}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("mean < min accepted: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{N: 30, NumCoflows: 40, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for i := range a {
		if !a[i].Demand.Equal(b[i].Demand) {
			t.Fatalf("coflow %d differs across identical seeds", i)
		}
	}
	c, err := Generate(GenConfig{N: 30, NumCoflows: 40, Seed: 43})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	same := true
	for i := range a {
		if !a[i].Demand.Equal(c[i].Demand) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateMatchesPaperMarginals(t *testing.T) {
	coflows, err := Generate(GenConfig{N: 150, NumCoflows: 526, Seed: 7})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(coflows) != 526 {
		t.Fatalf("got %d coflows, want 526", len(coflows))
	}
	s := Summarize(coflows)

	// Table I targets (± a few percent: integer rounding and random fill).
	assertNear(t, "sparse%", s.ClassPercent(Sparse), 86.31, 3)
	assertNear(t, "normal%", s.ClassPercent(Normal), 5.13, 3)
	assertNear(t, "dense%", s.ClassPercent(Dense), 8.56, 3)

	// Table II mode mix.
	assertNear(t, "S2S%", s.ModePercent(S2S), 23.38, 3)
	assertNear(t, "S2M%", s.ModePercent(S2M), 9.89, 3)
	assertNear(t, "M2S%", s.ModePercent(M2S), 40.11, 3)
	assertNear(t, "M2M%", s.ModePercent(M2M), 26.62, 3)

	// Table II byte shares: M2M carries essentially everything.
	if got := s.BytesPercent(M2M); got < 99 {
		t.Errorf("M2M byte share = %.3f%%, want > 99%%", got)
	}

	// Elephant floor holds everywhere.
	for _, c := range coflows {
		c.Demand.ForEachNonZero(func(i, j int, v int64) {
			if v < 400 {
				t.Fatalf("coflow %d has flow (%d,%d) of %d ticks below the 400-tick floor", c.ID, i, j, v)
			}
		})
	}
}

func TestGenerateSmallFabric(t *testing.T) {
	coflows, err := Generate(GenConfig{N: 10, NumCoflows: 30, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, c := range coflows {
		if c.Demand.IsZero() {
			t.Fatalf("coflow %d is empty", c.ID)
		}
		if c.Demand.N() != 10 {
			t.Fatalf("coflow %d has dimension %d", c.ID, c.Demand.N())
		}
	}
}

func assertNear(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.2f, want %.2f ± %.1f", name, got, want, tol)
	}
}

func TestSummaryString(t *testing.T) {
	coflows, err := Generate(GenConfig{N: 20, NumCoflows: 20, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	out := Summarize(coflows).String()
	for _, want := range []string{"Sparse", "S2S", "M2M", "Sizes%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

const sampleTrace = `3 2
1 0 2 1 2 1 3:6.0
2 100 1 3 2 1:3.0 2:1.5
`

func TestParseTrace(t *testing.T) {
	coflows, err := ParseTrace(strings.NewReader(sampleTrace), 80)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(coflows) != 2 {
		t.Fatalf("got %d coflows, want 2", len(coflows))
	}
	// Coflow 1: mappers {1,2}, reducer 3 with 6 MB -> 3 MB per mapper ->
	// 240 ticks each, 1-based racks shifted to 0-based.
	d := coflows[0].Demand
	if d.At(0, 2) != 240 || d.At(1, 2) != 240 {
		t.Errorf("coflow 1 demands: (0,2)=%d (1,2)=%d, want 240,240", d.At(0, 2), d.At(1, 2))
	}
	// Coflow 2: mapper 3, reducers 1 (3 MB) and 2 (1.5 MB).
	d = coflows[1].Demand
	if d.At(2, 0) != 240 || d.At(2, 1) != 120 {
		t.Errorf("coflow 2 demands: (2,0)=%d (2,1)=%d, want 240,120", d.At(2, 0), d.At(2, 1))
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"short header", "5\n"},
		{"truncated line", "3 1\n1 0 2 1\n"},
		// Once an allocation of 66 660 000 000 mappers.
		{"mapper count beyond the line", "1 1\n0 0 66660000000 0 1 0:1\n"},
		{"bad size", "3 1\n1 0 1 1 1 2:abc\n"},
		{"bad reducer spec", "3 1\n1 0 1 1 1 2\n"},
		{"count mismatch", "3 5\n1 0 1 1 1 2:1.0\n"},
		{"rack out of range", "2 1\n1 0 1 5 1 1:1.0\n"},
		// Once a panic: 2³² racks squared wrapped to a zero-cell matrix.
		{"rack count squared wraps", "4294967296 1\n1 0 1 1 1 2:1\n"},
		{"rack count beyond the cell cap", "5793 0\n"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseTrace(strings.NewReader(tt.in), 80); !errors.Is(err, ErrBadTrace) {
				t.Errorf("got %v, want ErrBadTrace", err)
			}
		})
	}
	if _, err := ParseTrace(strings.NewReader(sampleTrace), 0); !errors.Is(err, ErrBadTrace) {
		t.Error("zero ticksPerMB accepted")
	}
	// The cap holds 5792² cells: the widest fabric a header may name.
	if _, err := ParseTrace(strings.NewReader("5792 0\n"), 80); err != nil {
		t.Errorf("5792 racks refused: %v", err)
	}
}

// TestWriteTraceCountsWrittenCoflows: a coflow whose only reducer moves
// 0 MB parses to an empty demand, which WriteTrace skips. Its header used
// to count it anyway, so the written trace did not parse back.
func TestWriteTraceCountsWrittenCoflows(t *testing.T) {
	coflows, err := ParseTrace(strings.NewReader("3 2\n1 0 1 1 1 2:0\n2 0 1 1 1 3:1.0\n"), 80)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteTrace(&b, coflows, 3, 80); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(strings.NewReader(b.String()), 80)
	if err != nil {
		t.Fatalf("written trace does not parse back: %v\n%s", err, b.String())
	}
	if len(back) != 1 || back[0].ID != 2 {
		t.Fatalf("parsed back %d coflows, want coflow 2 alone:\n%s", len(back), b.String())
	}
}

func TestTraceRoundTrip(t *testing.T) {
	coflows, err := Generate(GenConfig{N: 20, NumCoflows: 15, Seed: 9})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var b strings.Builder
	if err := WriteTrace(&b, coflows, 20, 80); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	back, err := ParseTrace(strings.NewReader(b.String()), 80)
	if err != nil {
		t.Fatalf("ParseTrace round trip: %v", err)
	}
	if len(back) != len(coflows) {
		t.Fatalf("round trip lost coflows: %d -> %d", len(coflows), len(back))
	}
	for i := range back {
		// Size conversion truncates to 3 decimals of MB and splits across
		// mappers; totals must agree within 1%.
		orig := coflows[i].Demand.Total()
		got := back[i].Demand.Total()
		if math.Abs(float64(got-orig)) > 0.02*float64(orig) {
			t.Errorf("coflow %d total %d -> %d after round trip", i, orig, got)
		}
		// Mode is structurally preserved.
		if ClassifyMode(back[i].Demand) != ClassifyMode(coflows[i].Demand) {
			t.Errorf("coflow %d mode changed in round trip", i)
		}
	}
}
