// Package ordering implements the coflow-priority algorithms that drive
// multi-coflow schedulers: SEBF (Varys), the primal–dual permutation for
// weighted completion time in concurrent open shops (the combinatorial
// equivalent of the Shafiee–Ghaderi LP ordering that serves as Reco-Mul's
// default ALG_p), and the LP-II interval-indexed ordering of Qiu, Stein and
// Zhong that LP-II-GB is built on.
package ordering

import (
	"context"
	"fmt"
	"sort"

	"reco/internal/lp"
	"reco/internal/matrix"
)

// SEBF returns coflow indices sorted by Smallest-Effective-Bottleneck-First:
// ascending ρ_k, the maximum row/column sum of each coflow's demand matrix
// (Varys [11]). Ties break on the smaller index for determinism.
func SEBF(ds []*matrix.Matrix) []int {
	rho := make([]int64, len(ds))
	for k, d := range ds {
		rho[k] = d.MaxRowColSum()
	}
	order := identity(len(ds))
	sort.SliceStable(order, func(a, b int) bool {
		return rho[order[a]] < rho[order[b]]
	})
	return order
}

// PrimalDual returns a priority order minimizing total weighted completion
// time in the concurrent-open-shop relaxation of coflow scheduling, using
// the backward greedy primal–dual rule (Mastrolilli et al.): repeatedly find
// the most loaded port, place last the coflow whose (residual) weight per
// unit of demand on that port is smallest, discount the residual weights,
// and recurse on the rest. This is the combinatorial counterpart of the
// Shafiee–Ghaderi LP ordering and inherits its constant-factor guarantee.
//
// A nil w means unit weights.
func PrimalDual(ds []*matrix.Matrix, w []float64) ([]int, error) {
	kk := len(ds)
	if kk == 0 {
		return nil, fmt.Errorf("ordering: no coflows")
	}
	n := ds[0].N()
	// load[p][k]: demand of coflow k on port p; ports 0..n-1 are ingress,
	// n..2n-1 egress.
	load := make([][]int64, 2*n)
	for p := range load {
		load[p] = make([]int64, kk)
	}
	for k, d := range ds {
		if d.N() != n {
			return nil, fmt.Errorf("ordering: coflow %d has dimension %d, want %d", k, d.N(), n)
		}
		d.ForEachNonZero(func(i, j int, v int64) {
			load[i][k] += v
			load[n+j][k] += v
		})
	}
	wres := make([]float64, kk)
	for k := range wres {
		wres[k] = 1
		if k < len(w) {
			wres[k] = w[k]
		}
		if wres[k] < 0 {
			return nil, fmt.Errorf("ordering: negative weight %v for coflow %d", wres[k], k)
		}
	}

	remaining := make([]bool, kk)
	for k := range remaining {
		remaining[k] = true
	}
	portLoad := make([]int64, 2*n)
	for p := range portLoad {
		var s int64
		for k := 0; k < kk; k++ {
			s += load[p][k]
		}
		portLoad[p] = s
	}

	order := make([]int, kk)
	for pos := kk - 1; pos >= 0; pos-- {
		// Most loaded port among remaining coflows.
		pStar, best := 0, int64(-1)
		for p, l := range portLoad {
			if l > best {
				best = l
				pStar = p
			}
		}
		// Coflow with the smallest residual weight per unit of load on that
		// port goes last. With zero total load left, any remaining coflow
		// (they are all empty) can be placed.
		kStar := -1
		var bestRatio float64
		for k := 0; k < kk; k++ {
			if !remaining[k] || load[pStar][k] == 0 {
				continue
			}
			r := wres[k] / float64(load[pStar][k])
			if kStar == -1 || r < bestRatio {
				bestRatio = r
				kStar = k
			}
		}
		if kStar == -1 {
			for k := kk - 1; k >= 0; k-- {
				if remaining[k] {
					kStar = k
					break
				}
			}
			order[pos] = kStar
			remaining[kStar] = false
			continue
		}
		theta := bestRatio
		for k := 0; k < kk; k++ {
			if remaining[k] {
				wres[k] -= theta * float64(load[pStar][k])
				if wres[k] < 0 {
					wres[k] = 0
				}
			}
		}
		order[pos] = kStar
		remaining[kStar] = false
		for p := range portLoad {
			portLoad[p] -= load[p][kStar]
		}
	}
	return order, nil
}

// LPIIResult is the output of the LP-II interval-indexed relaxation.
type LPIIResult struct {
	// Order is the coflow priority permutation, ascending by LP completion
	// estimate.
	Order []int
	// Estimate[k] is the LP's fractional completion-time estimate for
	// coflow k.
	Estimate []float64
	// Group[k] is the geometric interval index the estimate falls into;
	// LP-II-GB merges same-group coflows into one aggregated schedule.
	Group []int
}

// LPIICtx solves the interval-indexed LP relaxation of total weighted coflow
// completion time (Qiu–Stein–Zhong [16]) with the embedded simplex solver
// and derives the LP-II-GB ordering and grouping.
//
// Variables x_{k,l} select the geometric deadline interval
// (τ_{l−1}, τ_l], τ_l = τ_min·2^l, in which coflow k completes; per-port
// cumulative load constraints enforce capacity. A nil w means unit weights.
// The embedded simplex solve polls ctx and aborts with ctx.Err() once it is
// cancelled.
func LPIICtx(ctx context.Context, ds []*matrix.Matrix, w []float64) (*LPIIResult, error) {
	kk := len(ds)
	if kk == 0 {
		return nil, fmt.Errorf("ordering: no coflows")
	}
	n := ds[0].N()

	// Interval grid: τ_0 = smallest single-coflow bottleneck, doubling up to
	// the serial upper bound Σ_k ρ_k.
	var tauMin, tauMax int64
	for k, d := range ds {
		if d.N() != n {
			return nil, fmt.Errorf("ordering: coflow %d has dimension %d, want %d", k, d.N(), n)
		}
		rho := d.MaxRowColSum()
		if rho == 0 {
			continue
		}
		if tauMin == 0 || rho < tauMin {
			tauMin = rho
		}
		tauMax += rho
	}
	if tauMin == 0 {
		// All coflows empty: trivial order.
		res := &LPIIResult{Order: identity(kk), Estimate: make([]float64, kk), Group: make([]int, kk)}
		return res, nil
	}
	// Geometric deadline grid. The classical construction doubles; a growth
	// factor of 4 quarters the LP size at a bounded cost in the relaxation's
	// precision, which keeps the embedded simplex tractable on skewed
	// workloads (the grouping downstream is geometric either way).
	const intervalGrowth = 4
	var taus []float64
	for tau := float64(tauMin); ; tau *= intervalGrowth {
		taus = append(taus, tau)
		if tau >= float64(tauMax) {
			break
		}
	}
	nl := len(taus)

	prob := lp.NewProblem()
	varIdx := make([][]int, kk) // varIdx[k][l]
	for k := range ds {
		varIdx[k] = make([]int, nl)
		wk := 1.0
		if k < len(w) {
			wk = w[k]
		}
		for l := 0; l < nl; l++ {
			prevTau := 0.0
			if l > 0 {
				prevTau = taus[l-1]
			}
			// Cost w_k·τ_{l-1} (completion lower bound of the interval);
			// use τ_0/2 for the first interval to keep estimates positive.
			cost := wk * prevTau
			if l == 0 {
				cost = wk * taus[0] / 2
			}
			varIdx[k][l] = prob.AddVariable(cost)
		}
	}
	// Assignment constraints: each coflow completes in exactly one interval.
	for k := 0; k < kk; k++ {
		terms := make(map[int]float64, nl)
		for l := 0; l < nl; l++ {
			terms[varIdx[k][l]] = 1
		}
		if err := prob.AddConstraint(terms, lp.EQ, 1); err != nil {
			return nil, fmt.Errorf("ordering: lp-ii assignment row: %w", err)
		}
	}
	// Capacity constraints: for each port p and interval l, the demand of
	// coflows finishing by τ_l fits within τ_l.
	rows := make([][]int64, kk)
	cols := make([][]int64, kk)
	for k, d := range ds {
		rows[k] = d.RowSums()
		cols[k] = d.ColSums()
	}
	for p := 0; p < 2*n; p++ {
		loadOf := func(k int) int64 {
			if p < n {
				return rows[k][p]
			}
			return cols[k][p-n]
		}
		var total int64
		for k := 0; k < kk; k++ {
			total += loadOf(k)
		}
		if total == 0 {
			continue
		}
		for l := 0; l < nl; l++ {
			if float64(total) <= taus[l] {
				break // capacity trivially satisfied from here on
			}
			terms := make(map[int]float64)
			for k := 0; k < kk; k++ {
				d := loadOf(k)
				if d == 0 {
					continue
				}
				for lp2 := 0; lp2 <= l; lp2++ {
					terms[varIdx[k][lp2]] = float64(d)
				}
			}
			if err := prob.AddConstraint(terms, lp.LE, taus[l]); err != nil {
				return nil, fmt.Errorf("ordering: lp-ii capacity row: %w", err)
			}
		}
	}

	sol, err := prob.SolveCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("ordering: lp-ii solve: %w", err)
	}

	res := &LPIIResult{
		Order:    identity(kk),
		Estimate: make([]float64, kk),
		Group:    make([]int, kk),
	}
	for k := 0; k < kk; k++ {
		var est float64
		for l := 0; l < nl; l++ {
			prevTau := taus[0] / 2
			if l > 0 {
				prevTau = taus[l-1]
			}
			est += sol.X[varIdx[k][l]] * prevTau
		}
		res.Estimate[k] = est
		g := 0
		for g+1 < nl && est > taus[g] {
			g++
		}
		res.Group[k] = g
	}
	sort.SliceStable(res.Order, func(a, b int) bool {
		return res.Estimate[res.Order[a]] < res.Estimate[res.Order[b]]
	})
	return res, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
