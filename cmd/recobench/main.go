// Command recobench regenerates the paper's tables and figures (and this
// repository's ablations) from the experiment harness.
//
// Usage:
//
//	recobench -exp fig4a            # one experiment
//	recobench -exp all              # everything, in presentation order
//	recobench -exp all,kcore        # presentation order plus an off-order id
//	recobench -exp fig6 -csv        # machine-readable output
//	recobench -list                 # available experiment ids
//	recobench -verify               # re-check the paper's qualitative shapes
//
// Scale knobs (-n, -coflows, -muln, -mulcoflows, -batches, -delta, -c,
// -seed) map directly onto experiments.Config; see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for recorded paper-vs-measured runs.
// -workers sets the per-experiment trial pool (tables are identical at any
// worker count; see docs/PARALLEL.md) and -time prints each experiment's wall
// time. recobench reproduces results/; it is not the measuring tool — see
// docs/PERF.md "Measuring".
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"reco/internal/experiments"
	"reco/internal/parallel"
)

func main() {
	os.Exit(run())
}

func run() int {
	def := experiments.Defaults()
	var (
		exp        = flag.String("exp", "all", "comma-separated experiment ids; 'all' expands to the presentation order")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		seed       = flag.Int64("seed", 1, "workload seed")
		delta      = flag.Int64("delta", def.Delta, "reconfiguration delay in ticks")
		c          = flag.Int64("c", def.C, "optical transmission threshold")
		singleN    = flag.Int("n", def.SingleN, "fabric ports for single-coflow experiments")
		singleK    = flag.Int("coflows", def.SingleCoflows, "workload size for single-coflow experiments")
		mulN       = flag.Int("muln", def.MulN, "fabric ports for multi-coflow experiments")
		mulK       = flag.Int("mulcoflows", def.MulCoflows, "coflows per multi-coflow batch")
		mulBatches = flag.Int("batches", def.MulBatches, "batches per multi-coflow data point")
		timing     = flag.Bool("time", false, "print wall-clock time per experiment")
		concurrent = flag.Int("parallel", 1, "experiments to run concurrently (output order is preserved)")
		workersN   = flag.Int("workers", 0, "trial-level workers per experiment (0 = RECO_WORKERS env, then GOMAXPROCS)")
		outDir     = flag.String("outdir", "", "also write each experiment's CSV to <outdir>/<id>.csv")
		verify     = flag.Bool("verify", false, "verify the paper's qualitative shapes and exit")
	)
	flag.Parse()

	registry := experiments.Registry()
	cfg := experiments.Config{
		Seed:          *seed,
		Delta:         *delta,
		C:             *c,
		SingleN:       *singleN,
		SingleCoflows: *singleK,
		MulN:          *mulN,
		MulCoflows:    *mulK,
		MulBatches:    *mulBatches,
		Workers:       *workersN,
	}
	if *verify {
		errs := experiments.VerifyShapes(cfg)
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "recobench: shape violated: %v\n", err)
		}
		if len(errs) > 0 {
			return 1
		}
		fmt.Println("all paper shapes hold")
		return 0
	}
	if *list {
		ids := make([]string, 0, len(registry))
		for id := range registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return 0
	}

	ids, err := expandExpList(*exp, registry)
	if err != nil {
		fmt.Fprintf(os.Stderr, "recobench: %v\n", err)
		return 2
	}

	type outcome struct {
		table   *experiments.Table
		err     error
		elapsed time.Duration
	}
	results := make([]outcome, len(ids))

	// Every id runs even after one fails (fn always returns nil): results are
	// collected by index and the print loop below stops at the first failure.
	_ = parallel.ForEach(max(*concurrent, 1), len(ids), func(i int) error {
		start := time.Now()
		table, err := registry[ids[i]](cfg)
		results[i] = outcome{table: table, err: err, elapsed: time.Since(start)}
		return nil
	})

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "recobench: %v\n", err)
			return 1
		}
	}
	for i, id := range ids {
		res := results[i]
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "recobench: %s: %v\n", id, res.err)
			return 1
		}
		if *csv {
			fmt.Print(res.table.CSV())
		} else {
			fmt.Print(res.table.String())
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, id+".csv")
			if err := os.WriteFile(path, []byte(res.table.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "recobench: writing %s: %v\n", path, err)
				return 1
			}
		}
		if *timing {
			fmt.Printf("(%s took %v)\n", id, res.elapsed.Round(time.Millisecond))
		}
		fmt.Println()
	}
	return 0
}

// expandExpList resolves a comma-separated -exp value into experiment ids:
// "all" expands in place to the presentation order, every other id must be a
// registered experiment, and duplicates collapse to their first occurrence so
// "all,kcore" never runs an experiment twice.
func expandExpList(spec string, registry map[string]experiments.Runner) ([]string, error) {
	var ids []string
	seen := make(map[string]bool)
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		switch {
		case part == "":
			return nil, fmt.Errorf("empty experiment id in %q", spec)
		case part == "all":
			for _, id := range experiments.Order() {
				add(id)
			}
		default:
			if _, ok := registry[part]; !ok {
				return nil, fmt.Errorf("unknown experiment %q (use -list)", part)
			}
			add(part)
		}
	}
	return ids, nil
}
