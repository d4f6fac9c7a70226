// Package lp is a self-contained linear-programming solver: a dense
// two-phase primal simplex with Dantzig pricing and a Bland anti-cycling
// fallback. It replaces the commercial solver (GUROBI) the paper's simulator
// embeds; the LP-II-GB baseline is its only production client, so the
// implementation favors clarity and exactness over large-scale performance.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"reco/internal/obs"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota + 1 // Σ aᵢxᵢ ≤ b
	GE               // Σ aᵢxᵢ ≥ b
	EQ               // Σ aᵢxᵢ = b
)

// ErrInfeasible reports that the constraint set has no solution.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded reports that the objective can decrease without bound.
var ErrUnbounded = errors.New("lp: unbounded")

// ErrIterationLimit reports that the simplex failed to converge within the
// iteration budget, which indicates a degenerate cycling pathology.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const eps = 1e-9

// ctxCheckStride is how many pivot iterations run between context polls: a
// pivot touches every row of the tableau, so even a coarse stride keeps the
// time to notice cancellation far below a single LP-II solve.
const ctxCheckStride = 32

// Problem is a minimization LP over non-negative variables:
// minimize c·x subject to the added constraints and x ≥ 0.
type Problem struct {
	costs []float64
	cons  []constraint
}

type constraint struct {
	coeffs map[int]float64
	op     Op
	rhs    float64
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable appends a variable with the given objective cost and returns
// its index.
func (p *Problem) AddVariable(cost float64) int {
	p.costs = append(p.costs, cost)
	return len(p.costs) - 1
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.costs) }

// AddConstraint adds Σ terms[i]·xᵢ (op) rhs. Variable indices must already
// exist. The terms map is copied.
func (p *Problem) AddConstraint(terms map[int]float64, op Op, rhs float64) error {
	if op != LE && op != GE && op != EQ {
		return fmt.Errorf("lp: unknown op %d", op)
	}
	c := constraint{coeffs: make(map[int]float64, len(terms)), op: op, rhs: rhs}
	for idx, v := range terms {
		if idx < 0 || idx >= len(p.costs) {
			return fmt.Errorf("lp: constraint references unknown variable %d", idx)
		}
		if v != 0 {
			c.coeffs[idx] = v
		}
	}
	p.cons = append(p.cons, c)
	return nil
}

// Solution is an optimal basic feasible solution.
type Solution struct {
	X         []float64
	Objective float64
}

// SolveCtx runs the two-phase simplex and returns an optimal solution, or
// ErrInfeasible / ErrUnbounded / ErrIterationLimit. The pivot loop checks
// ctx periodically and returns ctx.Err() once it is cancelled, so API
// handlers and the CLI can abort a long solve on timeout or Ctrl-C.
func (p *Problem) SolveCtx(ctx context.Context) (*Solution, error) {
	return p.solve(ctx, (*tableau).pivot)
}

// solve is SolveCtx with the pivot step as a parameter, so a test can hold
// the sparse pivot to a dense reference over whole solves.
func (p *Problem) solve(ctx context.Context, step func(t *tableau, leave, enter int)) (*Solution, error) {
	obs.Current().Inc("lp_solves_total")
	n := len(p.costs)
	m := len(p.cons)
	if m == 0 {
		// Unconstrained: optimum is x = 0 unless some cost is negative, in
		// which case that variable is unbounded below.
		for _, c := range p.costs {
			if c < -eps {
				return nil, ErrUnbounded
			}
		}
		return &Solution{X: make([]float64, n)}, nil
	}

	// Assemble the standard form: for each constraint (with rhs made
	// non-negative) add a slack, surplus and/or artificial column.
	type colKind int
	const (
		kindVar colKind = iota
		kindSlack
		kindArtificial
	)
	var kinds []colKind
	total := n
	kinds = make([]colKind, n)
	slackCol := make([]int, m) // -1 if none
	artifCol := make([]int, m) // -1 if none
	sign := make([]float64, m) // row multiplier applied to make rhs >= 0
	ops := make([]Op, m)
	for i, c := range p.cons {
		sign[i] = 1
		ops[i] = c.op
		if c.rhs < 0 {
			sign[i] = -1
			switch c.op {
			case LE:
				ops[i] = GE
			case GE:
				ops[i] = LE
			}
		}
		slackCol[i] = -1
		artifCol[i] = -1
		switch ops[i] {
		case LE:
			slackCol[i] = total
			kinds = append(kinds, kindSlack)
			total++
		case GE:
			slackCol[i] = total
			kinds = append(kinds, kindSlack)
			total++
			artifCol[i] = total
			kinds = append(kinds, kindArtificial)
			total++
		case EQ:
			artifCol[i] = total
			kinds = append(kinds, kindArtificial)
			total++
		}
	}

	// Tableau: m rows of [A | b]. The right-hand sides get a tiny
	// row-dependent relative perturbation — the classical remedy against
	// degenerate cycling and stalling; the induced objective error is below
	// the solver's own tolerance for any practically sized problem.
	tab := make([][]float64, m)
	basis := make([]int, m)
	for i, c := range p.cons {
		row := make([]float64, total+1)
		for idx, v := range c.coeffs {
			row[idx] = sign[i] * v
		}
		row[total] = sign[i] * c.rhs * (1 + 1e-10*float64(i+1))
		switch ops[i] {
		case LE:
			row[slackCol[i]] = 1
			basis[i] = slackCol[i]
		case GE:
			row[slackCol[i]] = -1
			row[artifCol[i]] = 1
			basis[i] = artifCol[i]
		case EQ:
			row[artifCol[i]] = 1
			basis[i] = artifCol[i]
		}
		tab[i] = row
	}

	t := &tableau{rows: tab, basis: basis, total: total, nz: make([]int, 0, total+1), step: step}

	// Phase 1: minimize the sum of artificial variables.
	hasArtificial := false
	phase1 := make([]float64, total)
	for j, k := range kinds {
		if k == kindArtificial {
			phase1[j] = 1
			hasArtificial = true
		}
	}
	if hasArtificial {
		obj, err := t.optimize(ctx, phase1)
		if err != nil {
			// Phase 1 is bounded below by 0, so ErrUnbounded cannot occur.
			return nil, err
		}
		if obj > 1e-6 {
			return nil, ErrInfeasible
		}
		// Pivot any artificial still in the basis out (degenerate rows), or
		// verify its value is zero.
		for i, b := range t.basis {
			if kinds[b] != kindArtificial {
				continue
			}
			pivoted := false
			for j := 0; j < total; j++ {
				if kinds[j] != kindArtificial && math.Abs(t.rows[i][j]) > eps {
					t.step(t, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted && math.Abs(t.rows[i][total]) > 1e-6 {
				return nil, ErrInfeasible
			}
		}
		// Forbid artificial columns from re-entering.
		for i := range t.rows {
			for j, k := range kinds {
				if k == kindArtificial {
					t.rows[i][j] = 0
				}
			}
		}
	}

	// Phase 2: minimize the real objective.
	phase2 := make([]float64, total)
	copy(phase2, p.costs)
	if hasArtificial {
		for j, k := range kinds {
			if k == kindArtificial {
				phase2[j] = 0
			}
		}
	}
	obj, err := t.optimize(ctx, phase2)
	if err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			x[b] = t.rows[i][total]
		}
	}
	return &Solution{X: x, Objective: obj}, nil
}

type tableau struct {
	rows  [][]float64 // m × (total+1), last column is RHS
	basis []int
	total int
	// z is the maintained reduced-cost row during optimize; pivot updates
	// it when non-nil (it is nil when artificials are driven out between
	// phases).
	z []float64
	// nz is pivot's scratch: the pivot row's non-zero columns.
	nz []int
	// step is the pivot the solve runs: pivot, or a test's reference.
	step func(t *tableau, leave, enter int)
}

// optimize runs primal simplex iterations for the given cost vector on the
// current basic feasible solution and returns the optimal objective value.
// It polls ctx every ctxCheckStride iterations and aborts with ctx.Err().
func (t *tableau) optimize(ctx context.Context, costs []float64) (float64, error) {
	// Pivot count flushed on every exit; with no sink attached this is a
	// plain local increment per iteration.
	iters := 0
	if snk := obs.Current(); snk != nil {
		defer func() { snk.Count("lp_simplex_iterations_total", int64(iters)) }()
	}
	m := len(t.rows)
	// Reduced costs: z_j = c_j − c_B · B⁻¹A_j, maintained as an extra row.
	z := make([]float64, t.total+1)
	copy(z, costs)
	for i, b := range t.basis {
		cb := costs[b]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j <= t.total; j++ {
			z[j] -= cb * row[j]
		}
	}
	t.z = z
	defer func() { t.z = nil }()

	maxIter := 50 * (m + t.total)
	if maxIter < 1000 {
		maxIter = 1000
	}
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		if iter%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		// Entering column: most negative reduced cost (Dantzig); switch to
		// Bland's rule late to guarantee termination on degenerate problems.
		bland := iter > maxIter/2
		enter := -1
		best := -eps
		for j := 0; j < t.total; j++ {
			if z[j] < best {
				if bland {
					enter = j
					break
				}
				best = z[j]
				enter = j
			}
		}
		if enter == -1 {
			return -z[t.total], nil
		}
		// Leaving row: min ratio test (Bland tie-break on basis index).
		leave := -1
		var ratio float64
		for i := 0; i < m; i++ {
			a := t.rows[i][enter]
			if a <= eps {
				continue
			}
			r := t.rows[i][t.total] / a
			if leave == -1 || r < ratio-eps || (math.Abs(r-ratio) <= eps && t.basis[i] < t.basis[leave]) {
				leave = i
				ratio = r
			}
		}
		if leave == -1 {
			return 0, ErrUnbounded
		}
		t.step(t, leave, enter)
	}
	return 0, ErrIterationLimit
}

// pivot makes column enter basic in row leave. The pivot row is mostly zero
// (slack columns, coflows that do not touch a port), so its non-zero columns
// are collected once and every other row and z is updated over those alone.
// A skipped update is x − f·0, which could only flip the sign of a zero x:
// every non-zero entry comes out bitwise as a dense pass would leave it.
func (t *tableau) pivot(leave, enter int) {
	prow := t.rows[leave]
	inv := 1 / prow[enter]
	nz := t.nz[:0]
	for j, v := range prow {
		if v != 0 {
			prow[j] = v * inv
			nz = append(nz, j)
		}
	}
	t.nz = nz
	for i, row := range t.rows {
		if i == leave {
			continue
		}
		if f := row[enter]; f != 0 {
			for _, j := range nz {
				row[j] -= f * prow[j]
			}
		}
	}
	if t.z != nil {
		if f := t.z[enter]; f != 0 {
			for _, j := range nz {
				t.z[j] -= f * prow[j]
			}
		}
	}
	t.basis[leave] = enter
}
