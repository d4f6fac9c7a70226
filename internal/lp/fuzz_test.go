package lp

import (
	"context"
	"math"
	"testing"
)

// densePivot is the pivot the solver ran before it went sparse: every column
// of the pivot row is scaled, and every column of every other row and of z is
// updated. It is the reference FuzzSimplexMatchesDense holds pivot to.
func densePivot(t *tableau, leave, enter int) {
	prow := t.rows[leave]
	pv := prow[enter]
	inv := 1 / pv
	for j := range prow {
		prow[j] *= inv
	}
	for i := range t.rows {
		if i == leave {
			continue
		}
		f := t.rows[i][enter]
		if f == 0 {
			continue
		}
		row := t.rows[i]
		for j := range row {
			row[j] -= f * prow[j]
		}
	}
	if t.z != nil {
		f := t.z[enter]
		if f != 0 {
			for j := range t.z {
				t.z[j] -= f * prow[j]
			}
		}
	}
	t.basis[leave] = enter
}

// fuzzProblem builds an LP from fuzz bytes: up to 6 variables with costs in
// [−4, 8], up to 6 LE, GE or EQ rows with coefficients in [−3, 7] and
// right-hand sides in [−8, 23]. Bytes past the end of data read as zero.
func fuzzProblem(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	p := NewProblem()
	nv, nc := 1+next()%6, next()%7
	for v := 0; v < nv; v++ {
		p.AddVariable(float64(next()%13 - 4))
	}
	for c := 0; c < nc; c++ {
		op := Op(1 + next()%3)
		rhs := float64(next()%32 - 8)
		terms := make(map[int]float64, nv)
		for v := 0; v < nv; v++ {
			terms[v] = float64(next()%11 - 3)
		}
		if err := p.AddConstraint(terms, op, rhs); err != nil {
			panic(err) // op and indices are in range by construction
		}
	}
	return p
}

// FuzzSimplexMatchesDense holds SolveCtx to the dense reference pivot: the
// same error, and every bit of X and Objective the same up to the sign of a
// zero, the one thing skipping the pivot row's zero columns may change.
func FuzzSimplexMatchesDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 5, 6, 1, 20, 4, 4})            // minimize x + 2y s.t. x + y ≥ 12
	f.Add([]byte{0, 2, 5, 1, 13, 4, 0, 10, 4})        // infeasible: x ≥ 5, x ≤ 2
	f.Add([]byte{0, 1, 3, 1, 9, 4})                   // unbounded: minimize −x s.t. x ≥ 1
	f.Add([]byte{5, 3, 1, 2, 3, 4, 5, 6, 2, 20, 4, 5, // three equality rows over six variables
		6, 7, 8, 9, 2, 11, 3, 4, 3, 4, 3, 4, 2, 10, 5, 3, 5, 3, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		got, gotErr := p.SolveCtx(context.Background())
		want, wantErr := p.solve(context.Background(), densePivot)
		if gotErr != wantErr {
			t.Fatalf("error %v, dense reference %v", gotErr, wantErr)
		}
		if want == nil {
			return
		}
		same := func(a, b float64) bool { return math.Float64bits(a+0) == math.Float64bits(b+0) }
		if !same(got.Objective, want.Objective) {
			t.Fatalf("objective %v, dense reference %v", got.Objective, want.Objective)
		}
		for i := range want.X {
			if !same(got.X[i], want.X[i]) {
				t.Fatalf("x[%d] = %v, dense reference %v", i, got.X[i], want.X[i])
			}
		}
	})
}
