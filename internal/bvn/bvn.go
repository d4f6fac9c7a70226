// Package bvn implements Birkhoff–von Neumann decomposition of (generalized)
// doubly stochastic demand matrices into permutation matrices with integer
// coefficients. A term is a circuit assignment: a circuit configuration held
// for as long as its coefficient says.
//
// Two extraction strategies are provided. MaxMin follows the paper (and
// Solstice [7]): each step extracts the perfect matching whose minimum entry
// is maximized, which empirically yields few large terms. FirstFit extracts
// an arbitrary perfect matching of the positive support each step; it is the
// "primitive BvN" whose Ω(N) pathology Theorem 1 exhibits, and is what the
// LP-II-GB baseline uses for its per-group schedules.
package bvn

import (
	"context"
	"errors"
	"fmt"

	"reco/internal/matching"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
)

// ErrNotDoublyStochastic reports that the input matrix's row and column sums
// are not all equal, so no Birkhoff decomposition exists.
var ErrNotDoublyStochastic = errors.New("bvn: matrix is not doubly stochastic")

// Term is one element of a decomposition: a permutation with an integer
// coefficient, read as the circuit assignment that holds the permutation for
// that long. Perm[i] is the column matched to row i. The matrix it denotes is
// Dur times the permutation matrix of Perm.
type Term = ocs.Assignment

// Strategy selects how each permutation matrix is extracted.
type Strategy int

const (
	// MaxMin extracts the bottleneck-optimal (max–min) perfect matching and
	// uses its minimum entry as the coefficient.
	MaxMin Strategy = iota + 1
	// FirstFit extracts an arbitrary perfect matching of the positive
	// support and uses its minimum entry as the coefficient.
	FirstFit
)

// DecomposeCtx writes m as a sum of permutation-matrix terms. The input must
// be doubly stochastic in the generalized sense (all row sums and column
// sums equal); stuffed matrices produced by the matrix package always
// qualify.
// The input is not modified. The returned terms sum exactly to m, and each
// coefficient is at least 1 (entries are integers).
//
// Every step zeroes at least one support entry, so at most nnz(m) terms are
// produced; for doubly stochastic matrices the classical bound
// N²−2N+2 [Marcus–Ree] also applies.
//
// Both strategies run on a single pooled matching.Engine over the sparse
// support: the matrix is scanned once, each extraction reuses the engine's
// graph and scratch, and subtracting a term repairs the support
// incrementally instead of rescanning the N×N residual (docs/PERF.md). The
// engine logs each term's matching in its own buffer, and the result's
// permutations are copied out of it into one slab at the end. The result
// is a circuit schedule as it stands: each term's Dur is its coefficient.
//
// The extraction loop checks ctx before every term and returns ctx.Err()
// once it is cancelled, so callers can abort a long decomposition on timeout
// or Ctrl-C. It keeps no reference to m once it returns: the terms own their
// storage, so a caller may reuse or recycle m (core.RecoSinCtx does).
func DecomposeCtx(ctx context.Context, m *matrix.Matrix, s Strategy) ([]Term, error) {
	if _, ok := m.DoublyStochasticValue(); !ok {
		return nil, ErrNotDoublyStochastic
	}
	var order matching.Order
	switch s {
	case MaxMin:
		order = matching.Descending
	case FirstFit:
		order = matching.RowMajor
	default:
		return nil, fmt.Errorf("bvn: unknown strategy %d", s)
	}
	eng := matching.AcquireEngine(m, order)
	defer eng.Release()
	for eng.Remaining() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := eng.Step(); err != nil {
			// Cannot happen for a doubly stochastic residual (Birkhoff's
			// theorem guarantees a perfect matching on the support), but a
			// future strategy bug must not loop forever.
			return nil, fmt.Errorf("bvn: extraction failed: %w", err)
		}
	}
	terms := logged(eng)
	snk := obs.Current()
	snk.Inc("bvn_decompositions_total")
	snk.Count("bvn_terms_total", int64(len(terms)))
	countTrials(snk, eng)
	snk.ObserveBuckets("bvn_terms_per_matrix", termBuckets, float64(len(terms)))
	return terms, nil
}

// logged copies the terms eng has logged out as caller-owned terms: every
// permutation lands in one slab of exact size, and each term's Perm is a
// capacity-limited slice of it, so an append to one cannot run into the
// next. No terms is a nil slice.
func logged(eng *matching.Engine) []Term {
	perms, coefs := eng.Logged()
	if len(coefs) == 0 {
		return nil
	}
	n := eng.N()
	slab := make([]int, len(perms))
	for i, v := range perms {
		slab[i] = int(v)
	}
	terms := make([]Term, len(coefs))
	for t, coef := range coefs {
		terms[t] = Term{Perm: slab[t*n : (t+1)*n : (t+1)*n], Dur: coef}
	}
	return terms
}

// countTrials exports, once per decomposition, how many max–min terms first
// tried the previous term's coefficient and how many of those found it to be
// the bottleneck again. On δ-regularized demand the ratio is high — every
// coefficient sits on the δ grid — and on arbitrary values it is near zero.
func countTrials(snk *obs.Sink, eng *matching.Engine) {
	trials, hits := eng.Trials()
	snk.Count("bvn_threshold_trials_total", int64(trials))
	snk.Count("bvn_threshold_hits_total", int64(hits))
}

// Recompose sums the terms back into a matrix of dimension n, the inverse of
// DecomposeCtx. It is exported for tests and validators.
func Recompose(terms []Term, n int) (*matrix.Matrix, error) {
	out, err := matrix.New(n)
	if err != nil {
		return nil, err
	}
	for ti, t := range terms {
		if len(t.Perm) != n {
			return nil, fmt.Errorf("bvn: term %d has dimension %d, want %d", ti, len(t.Perm), n)
		}
		if t.Dur <= 0 {
			return nil, fmt.Errorf("bvn: term %d has non-positive coefficient %d", ti, t.Dur)
		}
		for i, j := range t.Perm {
			out.Add(i, j, t.Dur)
		}
	}
	return out, nil
}
