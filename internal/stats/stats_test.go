package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMean(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty mean err = %v", err)
	}
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || got != 2.5 {
		t.Errorf("Mean = %v, %v; want 2.5", got, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {95, 5}, {100, 5},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty percentile err = %v", err)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("percentile > 100 accepted")
	}
	// The input must not be reordered.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("Ratio(6,3) != 2")
	}
	if Ratio(0, 0) != 1 {
		t.Error("Ratio(0,0) != 1")
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Error("Ratio(1,0) not +Inf")
	}
}

func TestInt64sAndWeightedSum(t *testing.T) {
	xs := Int64s([]int64{1, 2, 3})
	if xs[2] != 3 {
		t.Error("Int64s conversion wrong")
	}
}

func TestPercentilesMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := []float64{0, 10, 25, 50, 75, 90, 95, 99, 100}
	for _, n := range []int{1, 2, 3, 7, 100, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1e4
		}
		batch, err := Percentiles(xs, ps...)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, p := range ps {
			want, err := Percentile(xs, p)
			if err != nil {
				t.Fatalf("Percentile(n=%d, p=%v): %v", n, p, err)
			}
			if batch[i] != want {
				t.Errorf("n=%d p=%v: Percentiles=%v Percentile=%v", n, p, batch[i], want)
			}
		}
	}
}

func TestPercentilesErrors(t *testing.T) {
	if _, err := Percentiles(nil, 50); err != ErrEmpty {
		t.Errorf("empty input: err = %v, want ErrEmpty", err)
	}
	if _, err := Percentiles([]float64{1}, 50, 101); err == nil {
		t.Error("out-of-range percentile accepted")
	}
	// The input slice must not be reordered.
	xs := []float64{3, 1, 2}
	if _, err := Percentiles(xs, 50, 95); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}
