package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// contract is the part of BENCHMARK.json, the declaration the driver holds
// this program to, that the program itself reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports prints, for every workload and end-to-end metric, both
// readings, how far b is from a as a share of a, and the bound. It returns an
// error when a pair is further apart than its bound, when a metric that is a
// function of the seed alone differs at all, or when either run failed an
// operation.
func compareReports(w io.Writer, c *contract, a, b *report) error {
	exact := map[string]bool{}
	for _, m := range endToEnd {
		exact[m.name] = m.exact
	}
	sameSeed := a.Seed == b.Seed
	bad := 0
	fmt.Fprintf(w, "%-14s %-22s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, ra := range a.Workloads {
		if i >= len(b.Workloads) || b.Workloads[i].Workload != ra.Workload {
			return fmt.Errorf("the two result files do not list the same workloads")
		}
		rb := b.Workloads[i]
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed operations: %d and %d\n", ra.Workload, ra.Failed, rb.Failed)
			bad++
		}
		for _, m := range c.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := ""
			switch {
			case exact[m.Name] && sameSeed && va != vb:
				verdict = "  DIFFERS (must repeat exactly)"
				bad++
			case diff > m.Bound || math.IsNaN(diff):
				verdict = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-22s %16.6g %16.6g %8.2f%% %6.0f%%%s\n",
				ra.Workload, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs do not repeat", bad)
	}
	return nil
}
