// Command bench is the repository's benchmark: five workloads across the
// recod service and the recobench experiment suite, the end-to-end metrics a
// caller sees, and a traced run that attributes a request to the layers it
// crosses. BENCHMARK.json at the repository root is its contract and
// README.md its manual.
//
//	bash bench/run.sh                        every workload, tracing off
//	bash bench/run.sh --trace 1              the traced run: per-layer metrics
//	bash bench/run.sh --workload single_warm --seed 2 --seconds 10 --trace 0
//	bash bench/run.sh --repeat 2             run the set twice and compare
//	bash bench/run.sh --compare a.json b.json
//
// With --workload, the last line of standard output is the JSON object the
// benchmark driver reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "run this workload only and end with the driver's JSON line (default: all)")
		seed     = flag.Int64("seed", 1, "workload seed; 2 is held out for checking claims")
		seconds  = flag.Int("seconds", 0, "measuring time per workload (default: run_seconds in BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run every workload this many times and compare consecutive runs")
		compare  = flag.Bool("compare", false, "compare the two result files given as arguments")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	c, err := readContract(root)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = c.RunSeconds
	}
	env := environment{root: root, outDir: filepath.Join(root, "bench", "out"), seed: *seed, seconds: *seconds, traced: *trace != 0}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			return err
		}
		return compareReports(os.Stdout, c, a, b)
	case *repeat > 0:
		if env.traced {
			return errors.New("-repeat compares end-to-end metrics, which the traced run does not report")
		}
		var prev *report
		for i := 0; i < *repeat; i++ {
			rep, err := env.runAll(fmt.Sprintf("repeat%d-", i+1))
			if err != nil {
				return err
			}
			if prev != nil {
				if err := compareReports(os.Stdout, c, prev, rep); err != nil {
					return err
				}
			}
			prev = rep
		}
		return nil
	case *workload != "":
		res, err := env.runOne(*workload)
		if err != nil {
			return err
		}
		rep := newReport(env.seed, env.seconds, env.traced)
		rep.Workloads = []*result{res}
		if _, err := rep.write(env.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", *workload, env.seed, *trace)); err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res.verdict())
	default:
		_, err := env.runAll("")
		return err
	}
}

// environment is what every run of this process shares.
type environment struct {
	root    string // the repository root
	outDir  string // result and trace files, git-ignored
	seed    int64
	seconds int
	traced  bool
}

// workloadNames lists the workloads in the order BENCHMARK.json declares
// them.
func workloadNames() []string {
	names := make([]string, 0, len(serviceSpecs)+1)
	for _, sp := range serviceSpecs {
		names = append(names, sp.name)
	}
	return append(names, suiteName)
}

// runOne runs one workload and prints its metrics.
func (e environment) runOne(name string) (*result, error) {
	d := time.Duration(e.seconds) * time.Second
	var (
		res *result
		err error
	)
	switch {
	case name == suiteName && e.traced:
		res, err = runSuiteTraced(e.root, e.seed, d, e.outDir)
	case name == suiteName:
		res, err = runSuite(e.root, e.seed, d)
	default:
		sp, ok := specByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
		}
		if e.traced {
			res, err = runServiceTraced(sp, e.seed, d, e.outDir)
		} else {
			res, err = runService(sp, e.seed, d)
		}
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: %w", name, errNoSamples)
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	res.Metrics = res.Readings.render(defs)
	res.print(os.Stdout, defs)
	return res, nil
}

func specByName(name string) (spec, bool) {
	for _, sp := range serviceSpecs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// runAll runs every workload, writes the result file and fails when any
// operation failed.
func (e environment) runAll(prefix string) (*report, error) {
	rep := newReport(e.seed, e.seconds, e.traced)
	failed := 0
	for _, name := range workloadNames() {
		res, err := e.runOne(name)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, res)
		failed += res.Failed
	}
	mode := "untraced"
	if e.traced {
		mode = "traced"
	}
	path, err := rep.write(e.outDir, fmt.Sprintf("%sresults-seed%d-%s.json", prefix, e.seed, mode))
	if err != nil {
		return nil, err
	}
	fmt.Printf("took %.0f s, results in %s\n", rep.End.Sub(rep.Start).Seconds(), path)
	if failed > 0 {
		return nil, fmt.Errorf("%d operations failed their checks", failed)
	}
	return rep, nil
}

// findRoot walks up from the working directory to the directory that holds
// BENCHMARK.json, so the program works from the root and from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}
