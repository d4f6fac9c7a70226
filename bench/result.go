package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// result is one workload's run: the readings and how they were taken.
type result struct {
	Workload string `json:"workload"`
	// Attempted and Failed count operations: requests on the service
	// workloads, tables on exp_suite. In a traced run they count the
	// replayed requests, each held to the deeper checks as well.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"` // the first few failures
	// The timings are medians over Windows slices of the run (passes on
	// exp_suite). Samples is the number of latencies in them and BeyondP99
	// how many of those lie above their window's p99.
	Windows   int     `json:"windows"`
	Samples   int     `json:"samples"`
	BeyondP99 int     `json:"samples_beyond_p99"`
	SetupReps int     `json:"setup_reps"`
	Elapsed   float64 `json:"measured_s"`
	// Traced is the number of requests (tables) the traced replay covered.
	Traced    int    `json:"traced,omitempty"`
	TraceFile string `json:"trace_file,omitempty"`
	// Layers is the traced replay's time by span name.
	Layers   []layerRow `json:"layers,omitempty"`
	Readings readings   `json:"-"`
	// Metrics is Readings rendered against the table of the run's mode.
	Metrics map[string]value `json:"metrics"`
}

// count records one operation and, when err is not nil, its failure; the
// first few failures are kept for the report.
func (r *result) count(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) add(name string, v float64) {
	if r.Readings == nil {
		r.Readings = readings{}
	}
	r.Readings[name] = v
}

// report is the self-describing file a run writes, so that a number quoted
// in a later change can be traced to how it was taken.
type report struct {
	Commit     string    `json:"commit"`
	Modified   bool      `json:"commit_modified"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Traced     bool      `json:"traced"`
	Clients    int       `json:"clients"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	Workloads  []*result `json:"workloads"`
}

func newReport(seed int64, seconds int, traced bool) *report {
	rep := &report{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Clients:    clients,
		Start:      time.Now(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rep.Commit = s.Value
			case "vcs.modified":
				rep.Modified = s.Value == "true"
			}
		}
	}
	return rep
}

// write stores the report under dir and returns the path.
func (rep *report) write(dir, name string) (string, error) {
	rep.End = time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// print lists every metric of the run's mode by name, with its unit.
func (r *result) print(w io.Writer, defs []metric) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed, measured %.2f s", r.Workload, r.Attempted, r.Failed, r.Elapsed)
	if r.Windows > 0 {
		fmt.Fprintf(w, ", %d samples in %d windows (%d beyond p99)", r.Samples, r.Windows, r.BeyondP99)
	}
	if r.Traced > 0 {
		fmt.Fprintf(w, ", %d traced -> %s", r.Traced, r.TraceFile)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-26s %16.6g %s\n", r.Workload, d.name, r.Readings[d.name], d.unit)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "%-14s %-26s %8s %14s %14s\n", r.Workload, "span", "calls", "total us", "self us")
	}
	for _, l := range r.Layers {
		fmt.Fprintf(w, "%-14s %-26s %8d %14.1f %14.1f\n", r.Workload, l.Name, l.Calls, l.TotalUS, l.SelfUS)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-14s FAILED %s\n", r.Workload, e)
	}
}

// verdict is the line the driver reads: the last line of standard output.
type verdict struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) verdict() verdict {
	return verdict{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}
