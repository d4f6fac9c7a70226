package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSolveSimpleMinimization(t *testing.T) {
	// minimize x + 2y  s.t.  x + y >= 3, x <= 2, y <= 4.
	// Optimum: x=2, y=1, objective 4.
	p := NewProblem()
	x := p.AddVariable(1)
	y := p.AddVariable(2)
	mustAdd(t, p, map[int]float64{x: 1, y: 1}, GE, 3)
	mustAdd(t, p, map[int]float64{x: 1}, LE, 2)
	mustAdd(t, p, map[int]float64{y: 1}, LE, 4)
	sol, err := p.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approxEq(sol.Objective, 4) {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
	if !approxEq(sol.X[x], 2) || !approxEq(sol.X[y], 1) {
		t.Errorf("x,y = %v,%v, want 2,1", sol.X[x], sol.X[y])
	}
}

func TestSolveMaximizationViaNegation(t *testing.T) {
	// maximize 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18
	// (the classic example: optimum x=2, y=6, value 36).
	p := NewProblem()
	x := p.AddVariable(-3)
	y := p.AddVariable(-5)
	mustAdd(t, p, map[int]float64{x: 1}, LE, 4)
	mustAdd(t, p, map[int]float64{y: 2}, LE, 12)
	mustAdd(t, p, map[int]float64{x: 3, y: 2}, LE, 18)
	sol, err := p.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approxEq(sol.Objective, -36) {
		t.Errorf("objective = %v, want -36", sol.Objective)
	}
	if !approxEq(sol.X[x], 2) || !approxEq(sol.X[y], 6) {
		t.Errorf("x,y = %v,%v, want 2,6", sol.X[x], sol.X[y])
	}
}

func TestSolveEquality(t *testing.T) {
	// minimize x + y  s.t.  x + 2y = 4, x - y = 1  =>  x=2, y=1.
	p := NewProblem()
	x := p.AddVariable(1)
	y := p.AddVariable(1)
	mustAdd(t, p, map[int]float64{x: 1, y: 2}, EQ, 4)
	mustAdd(t, p, map[int]float64{x: 1, y: -1}, EQ, 1)
	sol, err := p.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approxEq(sol.X[x], 2) || !approxEq(sol.X[y], 1) {
		t.Errorf("x,y = %v,%v, want 2,1", sol.X[x], sol.X[y])
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// minimize x  s.t.  -x <= -5  (i.e. x >= 5).
	p := NewProblem()
	x := p.AddVariable(1)
	mustAdd(t, p, map[int]float64{x: -1}, LE, -5)
	sol, err := p.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approxEq(sol.X[x], 5) {
		t.Errorf("x = %v, want 5", sol.X[x])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1)
	mustAdd(t, p, map[int]float64{x: 1}, GE, 5)
	mustAdd(t, p, map[int]float64{x: 1}, LE, 3)
	if _, err := p.SolveCtx(context.Background()); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(-1) // maximize x
	mustAdd(t, p, map[int]float64{x: 1}, GE, 1)
	if _, err := p.SolveCtx(context.Background()); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestUnconstrained(t *testing.T) {
	p := NewProblem()
	p.AddVariable(1)
	p.AddVariable(0)
	sol, err := p.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approxEq(sol.Objective, 0) {
		t.Errorf("objective = %v, want 0", sol.Objective)
	}
	q := NewProblem()
	q.AddVariable(-1)
	if _, err := q.SolveCtx(context.Background()); !errors.Is(err, ErrUnbounded) {
		t.Errorf("unconstrained negative cost: err = %v, want ErrUnbounded", err)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// A classic degenerate corner; must terminate (anti-cycling).
	p := NewProblem()
	x := p.AddVariable(-0.75)
	y := p.AddVariable(150)
	z := p.AddVariable(-0.02)
	w := p.AddVariable(6)
	mustAdd(t, p, map[int]float64{x: 0.25, y: -60, z: -0.04, w: 9}, LE, 0)
	mustAdd(t, p, map[int]float64{x: 0.5, y: -90, z: -0.02, w: 3}, LE, 0)
	mustAdd(t, p, map[int]float64{z: 1}, LE, 1)
	sol, err := p.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approxEq(sol.Objective, -0.05) {
		t.Errorf("objective = %v, want -0.05 (Beale's example)", sol.Objective)
	}
}

func TestAddConstraintValidation(t *testing.T) {
	p := NewProblem()
	p.AddVariable(1)
	if err := p.AddConstraint(map[int]float64{5: 1}, LE, 1); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := p.AddConstraint(map[int]float64{0: 1}, Op(9), 1); err == nil {
		t.Error("unknown op accepted")
	}
	if p.NumVariables() != 1 {
		t.Errorf("NumVariables = %d, want 1", p.NumVariables())
	}
}

// TestRandomAgainstVertexEnumeration cross-checks the simplex against brute
// force over 2-variable LPs, where the optimum lies on a constraint-pair
// intersection or axis point.
func TestRandomAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		p := NewProblem()
		c0 := float64(rng.Intn(9) + 1)
		c1 := float64(rng.Intn(9) + 1)
		p.AddVariable(c0)
		p.AddVariable(c1)
		type con struct{ a0, a1, b float64 }
		var cons []con
		nc := 1 + rng.Intn(4)
		for i := 0; i < nc; i++ {
			c := con{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(20) + 1)}
			if c.a0 == 0 && c.a1 == 0 {
				c.a0 = 1
			}
			cons = append(cons, c)
			mustAdd(t, p, map[int]float64{0: c.a0, 1: c.a1}, GE, c.b)
		}
		sol, err := p.SolveCtx(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force: evaluate all candidate vertices.
		feasible := func(x, y float64) bool {
			if x < -1e-9 || y < -1e-9 {
				return false
			}
			for _, c := range cons {
				if c.a0*x+c.a1*y < c.b-1e-6 {
					return false
				}
			}
			return true
		}
		best := math.Inf(1)
		consider := func(x, y float64) {
			if feasible(x, y) {
				if v := c0*x + c1*y; v < best {
					best = v
				}
			}
		}
		for _, c := range cons {
			if c.a0 > 0 {
				consider(c.b/c.a0, 0)
			}
			if c.a1 > 0 {
				consider(0, c.b/c.a1)
			}
			for _, d := range cons {
				det := c.a0*d.a1 - c.a1*d.a0
				if math.Abs(det) < 1e-9 {
					continue
				}
				consider((c.b*d.a1-d.b*c.a1)/det, (c.a0*d.b-d.a0*c.b)/det)
			}
		}
		consider(0, 0)
		if math.IsInf(best, 1) {
			t.Fatalf("trial %d: brute force found no vertex but simplex solved", trial)
		}
		if math.Abs(best-sol.Objective) > 1e-5 {
			t.Fatalf("trial %d: simplex %v, brute force %v", trial, sol.Objective, best)
		}
	}
}

func mustAdd(t *testing.T, p *Problem, terms map[int]float64, op Op, rhs float64) {
	t.Helper()
	if err := p.AddConstraint(terms, op, rhs); err != nil {
		t.Fatalf("AddConstraint: %v", err)
	}
}
