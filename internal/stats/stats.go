// Package stats provides the small statistical toolkit the evaluation
// needs: means, percentiles, CDF points, and normalized-ratio helpers for
// the paper's "Normalized CCT" metric (Sec. V-A).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty reports an aggregate over no samples.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using the
// nearest-rank method the paper's 95-percentile figures imply.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0], nil
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], nil
}

// Percentiles returns the requested percentiles of xs, sorting the sample
// once instead of per call. Each result matches Percentile(xs, p) exactly
// (same nearest-rank method), so callers evaluating many points of one
// distribution — the CDF tables, the p95 summaries — can switch without
// changing any reported number.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	for _, p := range ps {
		if p < 0 || p > 100 {
			return nil, fmt.Errorf("stats: percentile %v out of [0,100]", p)
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p == 0 {
			out[i] = sorted[0]
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		out[i] = sorted[rank-1]
	}
	return out, nil
}

// Ratio returns a/b, treating 0/0 as 1.
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}

// Int64s converts an int64 sample slice to float64 for the aggregates above.
func Int64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
