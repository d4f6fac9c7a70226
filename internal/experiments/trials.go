package experiments

import (
	"context"
	"fmt"

	"reco/internal/algo"
	"reco/internal/matrix"
	"reco/internal/parallel"
	"reco/internal/stats"
	"reco/internal/workload"
)

// classOrder is the presentation order for per-density-class rows.
var classOrder = []workload.Class{workload.Sparse, workload.Normal, workload.Dense}

// grid runs trial(r, c) for every cell of a rows×cols sweep as one flat
// trial pool — so a nested sweep load-balances across its whole extent, not
// row by row — and returns the results as out[r][c]. A trial that derives a
// seed passes its grid coordinates as the parallel.Seed path elements, which
// makes the sweep a pure function of the seed at any worker count
// (docs/PARALLEL.md).
func grid[T any](workers, rows, cols int, trial func(r, c int) (T, error)) ([][]T, error) {
	flat, err := parallel.Map(workers, rows*cols, func(i int) (T, error) {
		return trial(i/cols, i%cols)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out, nil
}

// classRow turns one density class's samples into table rows: cols[c] holds
// column c of every trial of the class, in coflow order, and is empty for a
// class the workload lacks. Whether such a class prints a zero row or none
// is the row function's choice (see presentOnly).
type classRow func(t *Table, label string, cols [][]float64)

// perClass fills t from one trial per coflow of the single-coflow workload:
// the trials run over the pool, the columns each returns are grouped by the
// coflow's density class, and row emits each class in classOrder. Errors
// come back prefixed with the table id.
func perClass(cfg Config, t *Table, trial func(d *matrix.Matrix) ([]float64, error), row classRow) (*Table, error) {
	coflows, err := singleWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.ID, err)
	}
	samples, err := parallel.Map(cfg.workers(), len(coflows), func(i int) ([]float64, error) {
		return trial(coflows[i].Demand)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.ID, err)
	}
	classRows(t, coflows, samples, "", row)
	return t, nil
}

// classRows groups samples (one per coflow; a nil sample leaves its coflow
// out) by density class and calls row for each class in classOrder, labelled
// with the class name plus suffix.
func classRows(t *Table, coflows []workload.Coflow, samples [][]float64, suffix string, row classRow) {
	width := 0
	for _, s := range samples {
		width = max(width, len(s))
	}
	if width == 0 {
		return
	}
	byClass := map[workload.Class][][]float64{}
	for _, cl := range classOrder {
		byClass[cl] = make([][]float64, width)
	}
	for i, s := range samples {
		cols := byClass[workload.Classify(coflows[i].Demand)]
		for c, v := range s {
			cols[c] = append(cols[c], v)
		}
	}
	for _, cl := range classOrder {
		row(t, cl.String()+suffix, byClass[cl])
	}
}

// presentOnly wraps row so that a class the workload lacks gets no row.
func presentOnly(row classRow) classRow {
	return func(t *Table, label string, cols [][]float64) {
		if len(cols[0]) > 0 {
			row(t, label, cols)
		}
	}
}

// meanRow emits the column means (zeros for a class the workload lacks).
func meanRow(t *Table, label string, cols [][]float64) {
	t.AddRow(label, colMeans(cols)...)
}

// meanRatioRow emits the column means followed by mean[num]/mean[den]. Bare,
// it serves the tables whose row count is fixed (Fig. 4 and 5(a):
// VerifyShapes and TestFig5Shapes index rows by class): a class the workload
// lacks prints zero means and the 0/0 = 1 ratio.
func meanRatioRow(num, den int) classRow {
	return func(t *Table, label string, cols [][]float64) {
		m := colMeans(cols)
		t.AddRow(label, append(m, stats.Ratio(m[num], m[den]))...)
	}
}

// colMeans returns each column's mean, zero for an empty column.
func colMeans(cols [][]float64) []float64 {
	out := make([]float64, len(cols))
	for c, col := range cols {
		out[c] = meanF(col)
	}
	return out
}

func meanF(xs []float64) float64 {
	m, err := stats.Mean(xs)
	if err != nil {
		return 0
	}
	return m
}

// runRow runs the registry row name on req, asking for no flows: a table
// reads only CCTs, reconfiguration counts and, from the per-coflow rows,
// circuit schedules. An error comes back prefixed with the row's name.
func runRow(name string, req algo.Request) (*algo.Result, error) {
	req.NoFlows = true
	res, err := algo.MustGet(name).Schedule(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// one runs the registry row name on the single coflow d at delta.
func one(name string, d *matrix.Matrix, delta int64) (*algo.Result, error) {
	return runRow(name, algo.Request{Demands: []*matrix.Matrix{d}, Delta: delta})
}
