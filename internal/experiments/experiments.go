// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. V) plus the ablations DESIGN.md calls out. Each
// experiment is a pure function from a Config to a Table that prints the
// same rows or series the paper reports; cmd/recobench and the repository's
// benchmarks are thin wrappers around this package.
//
// Scale note: the paper runs 526 coflows on a 150-port fabric with GUROBI.
// The default Config here uses the same workload shape at a moderate fabric
// size so that the embedded simplex and the O(N³)-ish decompositions finish
// in seconds; every knob is exported, and the reported metrics are
// normalized ratios, which are scale-stable (see DESIGN.md §2).
package experiments

import (
	"fmt"
	"strings"

	"reco/internal/obs"
	"reco/internal/parallel"
)

// Config parameterizes all experiments. The zero value takes the documented
// defaults.
type Config struct {
	// Seed drives all workload generation.
	Seed int64
	// Delta is the reconfiguration delay in ticks (1 tick = 1 µs). Default
	// 100 — the paper's 100 µs default.
	Delta int64
	// C is the optical transmission threshold: non-zero demands are at
	// least C·Delta. Default 4.
	C int64
	// SingleN is the fabric size for single-coflow experiments. Default 60.
	SingleN int
	// SingleCoflows is the workload size for single-coflow experiments.
	// Default 120.
	SingleCoflows int
	// MulN is the fabric size for multi-coflow experiments (kept moderate:
	// LP-II solves an interval-indexed LP over 2·MulN ports). Default 60.
	MulN int
	// MulCoflows is the number of coflows per multi-coflow batch. Default
	// 12, preserving the paper's coflows-to-ports ratio regime.
	MulCoflows int
	// MulBatches is the number of independent batches averaged per
	// multi-coflow data point. Default 3.
	MulBatches int
	// Workers bounds the fan-out of every trial sweep. Zero resolves
	// through parallel.Workers: the RECO_WORKERS environment override,
	// then GOMAXPROCS. The rendered tables are identical for every worker
	// count — trials derive their randomness from the seed and their trial
	// index, and results are collected in trial order (docs/PARALLEL.md).
	Workers int
}

// workers resolves the effective fan-out bound for this configuration.
func (c Config) workers() int {
	return parallel.Workers(c.Workers)
}

// Defaults returns the configuration the zero Config resolves to.
func Defaults() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Delta == 0 {
		c.Delta = 100
	}
	if c.C == 0 {
		c.C = 4
	}
	if c.SingleN == 0 {
		c.SingleN = 60
	}
	if c.SingleCoflows == 0 {
		c.SingleCoflows = 120
	}
	if c.MulN == 0 {
		c.MulN = 60
	}
	if c.MulCoflows == 0 {
		c.MulCoflows = 12
	}
	if c.MulBatches == 0 {
		c.MulBatches = 3
	}
	return c
}

// Table is a rendered experiment result: a labeled grid of numbers.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one table row.
type Row struct {
	Label string
	Cells []float64
}

// AddRow appends a row.
func (t *Table) AddRow(label string, cells ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("row")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	cells := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r.Cells))
		for ci, v := range r.Cells {
			cells[ri][ci] = formatCell(v)
			if ci+1 < len(widths) && len(cells[ri][ci]) > widths[ci+1] {
				widths[ci+1] = len(cells[ri][ci])
			}
		}
	}
	for ci, cname := range t.Columns {
		if len(cname) > widths[ci+1] {
			widths[ci+1] = len(cname)
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], "")
	for ci, cname := range t.Columns {
		fmt.Fprintf(&b, "  %*s", widths[ci+1], cname)
	}
	b.WriteByte('\n')
	for ri, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.Label)
		for ci := range r.Cells {
			fmt.Fprintf(&b, "  %*s", widths[ci+1], cells[ri][ci])
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("row")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, ",%v", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

// Runner is an experiment entry point.
type Runner func(Config) (*Table, error)

// instrumented wraps a runner so each regeneration lands on the attached
// sink as an `exp:<id>` stage span plus per-experiment run/error counters.
// Detached, the wrapper is two nil checks around the call.
func instrumented(id string, run Runner) Runner {
	return func(cfg Config) (*Table, error) {
		snk := obs.Current()
		if snk == nil {
			return run(cfg)
		}
		end := snk.Stage("exp:" + id)
		t, err := run(cfg)
		end()
		snk.Inc(obs.L("experiment_runs_total", "id", id))
		if err != nil {
			snk.Inc(obs.L("experiment_errors_total", "id", id))
		}
		return t, err
	}
}

// experimentList is every experiment, in presentation order: id (DESIGN.md
// §4 has a row for each), runner, and whether "run everything" includes it.
// The five that it does not are registered but off the presentation order,
// so `recobench -exp all` output (results/all.txt) never changed when they
// were added: the ~30 s full-scale run, and four later sweeps. Regenerate
// their CSVs with `recobench -exp <id> -outdir results`.
var experimentList = []struct {
	id    string
	run   Runner
	inAll bool
}{
	{"table1", Table1, true},
	{"table2", Table2, true},
	{"fig4a", Fig4a, true},
	{"fig4b", Fig4b, true},
	{"fig4a-cdf", Fig4aCDF, true},
	{"fig4b-cdf", Fig4bCDF, true},
	{"fig5a", Fig5a, true},
	{"fig5b", Fig5b, true},
	{"fig6", Fig6, true},
	{"fig7", Fig7, true},
	{"fig8", Fig8, true},
	{"fig9a", Fig9a, true},
	{"fig9b", Fig9b, true},
	{"table3", Table3, true},
	{"thm1", Thm1, true},
	{"thm2", Thm2, true},
	{"ablation-reg", AblationRegularization, true},
	{"ablation-align", AblationAlignment, true},
	{"ablation-bvn", AblationBvNStrategy, true},
	{"notallstop", NotAllStop, true},
	{"faults", Faults, true},
	{"ext-single", ExtSingle, true},
	{"ext-sunflow", ExtSunflowNAS, true},
	{"ext-nas", ExtNAS, true},
	{"ext-online", ExtOnline, true},
	{"ext-hybrid", ExtHybrid, true},
	{"ext-optics", ExtOptics, true},
	{"ext-scale", ExtScale, true},
	{"ext-full", ExtFull, false},
	{"admission", Admission, false},
	{"kcore", KCore, false},
	{"frontier", Frontier, false},
	{"hybrid", Hybrid, false},
}

// Registry maps experiment ids (DESIGN.md §4) to their runners. Every
// runner is returned pre-wrapped with instrumentation (see instrumented).
func Registry() map[string]Runner {
	reg := make(map[string]Runner, len(experimentList))
	for _, e := range experimentList {
		reg[e.id] = instrumented(e.id, e.run)
	}
	return reg
}

// Order lists experiment ids in presentation order for "run everything".
func Order() []string {
	var ids []string
	for _, e := range experimentList {
		if e.inAll {
			ids = append(ids, e.id)
		}
	}
	return ids
}
