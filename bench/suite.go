package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"reco/internal/core"
	"reco/internal/experiments"
	"reco/internal/faults"
	"reco/internal/matrix"
	"reco/internal/ordering"
	"reco/internal/sim"
)

const suiteName = "exp_suite"

// suiteIDs are the tables exp_suite regenerates: between them they load the
// fault simulator, the LP orderings, Solstice, the sequential and K-core
// executors and the parallel trial engine, none of which a recod request
// reaches.
var suiteIDs = []string{"fig5b", "fig7", "fig8", "faults", "kcore"}

// suiteConfig is the configuration results/*.csv were generated with; the
// tables must come out byte for byte, so --seed cannot reach it and only
// orders the tables.
var suiteConfig = experiments.Config{Seed: 1, Workers: 2}

// suiteWarmConfig is a small instance of every table, run during set-up so
// the timed passes start with the code paths and pools warm.
var suiteWarmConfig = experiments.Config{
	Seed: 1, Workers: 2,
	SingleN: 24, SingleCoflows: 48, MulN: 16, MulCoflows: 6, MulBatches: 1,
}

// mulCoflows is experiments.Config's default batch size, which fig8 counts
// reconfigurations over.
const mulCoflows = 12

type suite struct {
	cfg     experiments.Config
	runners map[string]experiments.Runner
	want    map[string]string // id -> the CSV the table must equal
	order   []string
}

// committedTables reads results/<id>.csv for every table of the suite.
func committedTables(root string) (map[string]string, error) {
	want := map[string]string{}
	for _, id := range suiteIDs {
		data, err := os.ReadFile(filepath.Join(root, "results", id+".csv"))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", suiteName, err)
		}
		want[id] = string(data)
	}
	return want, nil
}

// suiteSetUp is exp_suite's set-up: load the committed tables, order the
// runners by the seed and run the warm-up pass.
func suiteSetUp(root string, seed int64) (*suite, error) {
	want, err := committedTables(root)
	if err != nil {
		return nil, err
	}
	s := newSuite(suiteConfig, want, seed)
	for _, id := range s.order {
		if _, err := s.runners[id](suiteWarmConfig); err != nil {
			return nil, fmt.Errorf("%s: warm-up %s: %w", suiteName, id, err)
		}
	}
	return s, nil
}

// newSuite is a suite that regenerates the tables at cfg, in an order drawn
// from the seed, and holds them to want.
func newSuite(cfg experiments.Config, want map[string]string, seed int64) *suite {
	s := &suite{cfg: cfg, runners: experiments.Registry(), want: want, order: slices.Clone(suiteIDs)}
	rand.New(rand.NewSource(seed)).Shuffle(len(s.order), func(a, b int) {
		s.order[a], s.order[b] = s.order[b], s.order[a]
	})
	return s
}

// tableRun is one table of one pass.
type tableRun struct {
	id    string
	took  time.Duration
	table *experiments.Table
	err   error // the runner failed or the CSV differs from results/
}

// pass regenerates the tables one after another and compares each with the
// committed CSV.
func (s *suite) pass(tr *tracer, pass, parent int) []tableRun {
	runs := make([]tableRun, 0, len(s.order))
	for _, id := range s.order {
		sp := tr.begin("experiments."+id, pass, parent)
		t0 := time.Now()
		table, err := s.runners[id](s.cfg)
		run := tableRun{id: id, took: time.Since(t0), table: table, err: err}
		tr.end(sp)
		if err == nil && table.CSV() != s.want[id] {
			run.err = fmt.Errorf("%s.csv differs from results/%s.csv", id, id)
		}
		runs = append(runs, run)
	}
	return runs
}

// passes repeats pass until d has gone by, at least once.
func (s *suite) passes(d time.Duration) (runs []tableRun, walls []float64, elapsed time.Duration, u usage) {
	before := readUsage()
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		t0 := time.Now()
		runs = append(runs, s.pass(nil, len(walls), -1)...)
		walls = append(walls, time.Since(t0).Seconds())
	}
	return runs, walls, time.Since(start), readUsage().since(before)
}

// addRuns records the operation counts and failures of runs.
func (r *result) addRuns(runs []tableRun) {
	for _, run := range runs {
		r.count(run.err)
	}
}

// runSuite is the untraced exp_suite run. Its operation is a table: the
// request metrics read per table (p50 the middle table of a pass, p99 the
// slowest), wall_s is the median pass, and the two quality metrics are read
// off the tables the run produced.
func runSuite(root string, seed int64, d time.Duration) (*result, error) {
	var (
		s      *suite
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if s, err = suiteSetUp(root, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := &result{Workload: suiteName, SetupReps: setupReps}
	res.add("setup_s", median(setups))
	s.measure(res, d)
	return res, nil
}

// measure runs the timed passes and records the end-to-end readings.
func (s *suite) measure(res *result, d time.Duration) {
	runs, walls, elapsed, u := s.passes(d)
	res.addRuns(runs)

	// A pass is to exp_suite what a window is to a service run.
	var p50s, p99s []float64
	for pass := range walls {
		took := make([]time.Duration, 0, len(s.order))
		for _, run := range runs[pass*len(s.order) : (pass+1)*len(s.order)] {
			took = append(took, run.took)
		}
		slices.Sort(took)
		p50s = append(p50s, ms(quantile(took, 0.50)))
		p99s = append(p99s, ms(quantile(took, 0.99)))
	}
	n := float64(len(runs))
	res.Windows = len(walls)
	res.Samples = len(runs)
	res.Elapsed = elapsed.Seconds()
	wall := median(walls)
	res.add("wall_s", wall)
	res.add("throughput_rps", float64(len(s.order))/wall)
	res.add("latency_p50_ms", median(p50s))
	res.add("latency_p99_ms", median(p99s))
	res.add("allocs_per_req", float64(u.mallocs)/n)
	res.add("bytes_per_req", float64(u.bytes)/n)
	for _, run := range runs[:len(s.order)] {
		if run.err != nil {
			continue
		}
		switch run.id {
		case "fig5b":
			res.add("cct_over_lb", columnMean(run.table, "Reco-Sin/LB"))
		case "fig8":
			res.add("reconfigs_per_coflow", cell(run.table, "all", "Reco-Mul")/mulCoflows)
		}
	}
}

// columnMean is the mean of a table column, 0 when the column is missing.
func columnMean(t *experiments.Table, column string) float64 {
	c := slices.Index(t.Columns, column)
	if c < 0 || len(t.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range t.Rows {
		sum += row.Cells[c]
	}
	return sum / float64(len(t.Rows))
}

// cell is one table cell, 0 when the row or column is missing.
func cell(t *experiments.Table, row, column string) float64 {
	c := slices.Index(t.Columns, column)
	for _, r := range t.Rows {
		if r.Label == row && c >= 0 {
			return r.Cells[c]
		}
	}
	return 0
}

// runSuiteTraced is the traced exp_suite run: untraced passes for the
// process readings, one pass with a span per table, and the two probes that
// time the fault simulator and the interval-indexed LP on their own.
func runSuiteTraced(root string, seed int64, d time.Duration, outDir string) (*result, error) {
	s, err := suiteSetUp(root, seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: suiteName, SetupReps: 1, Traced: len(s.order)}
	if err := s.trace(res, seed, d, outDir, serviceSpecs[0], serviceSpecs[3]); err != nil {
		return nil, err
	}
	return res, nil
}

// trace runs the untraced passes, the traced pass and the two probes, which
// draw their inputs from the dense and multi workloads' streams.
func (s *suite) trace(res *result, seed int64, d time.Duration, outDir string, dense, multi spec) error {
	runs, walls, elapsed, u := s.passes(d)
	res.addRuns(runs)
	res.Samples = len(runs)
	res.Elapsed = elapsed.Seconds()
	res.addProc(u, elapsed)

	tr := newTracer()
	root := tr.begin("pass", 0, -1)
	traced := s.pass(tr, 0, root)
	tr.end(root)
	res.addRuns(traced)
	if err := probeRunFaults(tr, res, seed, dense); err != nil {
		return err
	}
	if err := probeLPII(tr, res, seed, multi); err != nil {
		return err
	}

	layers := tr.byLayer()
	var tables time.Duration
	for _, run := range traced {
		tables += run.took
		res.add("experiments."+run.id+"_s", run.took.Seconds())
	}
	pass := layers["pass"].total
	res.add("trace.coverage", float64(tables)/float64(pass))
	res.add("trace.overhead_ratio", pass.Seconds()/median(walls))
	for _, name := range []string{"sim.runfaults", "ordering.lpii"} {
		res.add(name+"_us", us(layers[name].total)/float64(layers[name].calls))
	}
	res.Layers = table(layers)
	var err error
	if res.TraceFile, err = tr.write(outDir, suiteName); err != nil {
		return fmt.Errorf("%s: writing the trace: %w", suiteName, err)
	}
	return nil
}

// probeRunFaults times sim.RunFaults replaying a Reco-Sin schedule under a
// seeded fault schedule, on 32 matrices of the dense workload. The faults
// are reconfiguration jitter only, so every replay runs to completion.
func probeRunFaults(tr *tracer, res *result, seed int64, sp spec) error {
	sp.pool = 32
	st, err := newStream(sp, seed)
	if err != nil {
		return err
	}
	root := tr.begin("probe.runfaults", 0, -1)
	defer tr.end(root)
	for k, sl := range st.slots {
		cs, err := core.RecoSin(sl.m, delta)
		if err != nil {
			return err
		}
		fs, err := faults.Generate(faults.GenConfig{N: sl.m.N(), Seed: seed + int64(k), JitterBound: delta / 2})
		if err != nil {
			return err
		}
		id := tr.begin("sim.runfaults", k, root)
		out, err := sim.RunFaults(sl.m, sim.NewReplay(cs), delta, fs)
		tr.end(id)
		if err == nil && out.CCT < sl.lb {
			err = fmt.Errorf("cct %d below the lower bound %d", out.CCT, sl.lb)
		}
		if err != nil {
			err = fmt.Errorf("sim.RunFaults on matrix %d: %w", k, err)
		}
		res.count(err)
	}
	return nil
}

// probeLPII times ordering.LPIICtx, and the simplex inside it, on the first
// batches of the multi workload's stream.
func probeLPII(tr *tracer, res *result, seed int64, sp spec) error {
	const batches = 8
	sp.pool = batches * sp.coflows
	st, err := newStream(sp, seed)
	if err != nil {
		return err
	}
	root := tr.begin("probe.lpii", 0, -1)
	defer tr.end(root)
	for b := 0; b < batches; b++ {
		ds := make([]*matrix.Matrix, st.coflows)
		for k := range ds {
			ds[k] = st.slots[st.templates[b].first+k].m
		}
		id := tr.begin("ordering.lpii", b, root)
		out, err := ordering.LPIICtx(context.Background(), ds, nil)
		tr.end(id)
		if err == nil && len(out.Order) != len(ds) {
			err = fmt.Errorf("order of %d coflows for %d", len(out.Order), len(ds))
		}
		if err != nil {
			err = fmt.Errorf("ordering.LPIICtx on batch %d: %w", b, err)
		}
		res.count(err)
	}
	return nil
}
