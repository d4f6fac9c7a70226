// Command recotrace generates and inspects coflow workloads.
//
// Generate a synthetic Facebook-like workload and write it in the portable
// coflow-benchmark format:
//
//	recotrace -gen -n 150 -coflows 526 -seed 1 -out trace.txt
//
// Inspect a workload (synthetic or from a trace file): the density and
// transmission-mode statistics of Tables I and II plus per-class counts.
//
//	recotrace -stats -trace trace.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"reco/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recotrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gen     = fs.Bool("gen", false, "generate a synthetic workload")
		stats   = fs.Bool("stats", false, "print workload statistics")
		trace   = fs.String("trace", "", "trace file to read (with -stats) ")
		out     = fs.String("out", "", "file to write (with -gen); default stdout")
		n       = fs.Int("n", 150, "fabric ports")
		numCf   = fs.Int("coflows", 526, "number of coflows")
		seed    = fs.Int64("seed", 1, "generator seed")
		minDem  = fs.Int64("min", 400, "minimum flow demand in ticks (c*delta)")
		rescale = fs.Int("rescale", 0, "fold the workload onto this many ports (0: keep)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if !*gen && !*stats {
		fmt.Fprintln(stderr, "recotrace: pass -gen and/or -stats")
		return 2
	}

	var coflows []workload.Coflow
	var err error
	if *trace != "" {
		f, ferr := os.Open(*trace)
		if ferr != nil {
			fmt.Fprintf(stderr, "recotrace: %v\n", ferr)
			return 1
		}
		coflows, err = workload.ParseTrace(f, workload.DefaultTicksPerMB)
		f.Close()
	} else {
		coflows, err = workload.Generate(workload.GenConfig{
			N: *n, NumCoflows: *numCf, Seed: *seed, MinDemand: *minDem,
		})
	}
	if err != nil {
		fmt.Fprintf(stderr, "recotrace: %v\n", err)
		return 1
	}
	if *rescale > 0 {
		if coflows, err = workload.Rescale(coflows, *rescale); err != nil {
			fmt.Fprintf(stderr, "recotrace: %v\n", err)
			return 1
		}
	}

	if *gen {
		fabric := *n
		if len(coflows) > 0 {
			fabric = coflows[0].Demand.N()
		}
		if err := writeTrace(*out, stdout, coflows, fabric); err != nil {
			fmt.Fprintf(stderr, "recotrace: %v\n", err)
			return 1
		}
	}
	if *stats {
		fmt.Fprint(stdout, workload.Summarize(coflows).String())
	}
	return 0
}

// writeTrace writes coflows to the file path, or to stdout when path is
// empty; a file that fails to close is a failed write.
func writeTrace(path string, stdout io.Writer, coflows []workload.Coflow, fabric int) error {
	if path == "" {
		return workload.WriteTrace(stdout, coflows, fabric, workload.DefaultTicksPerMB)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.WriteTrace(f, coflows, fabric, workload.DefaultTicksPerMB); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
