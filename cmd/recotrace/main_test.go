package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"reco/internal/workload"
)

func TestRunWithoutModeIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-gen and/or -stats") {
		t.Errorf("stderr %q does not name the mode flags", stderr.String())
	}
}

func TestRunUnreadableTraceFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	missing := filepath.Join(t.TempDir(), "missing.txt")
	if code := run([]string{"-stats", "-trace", missing}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "missing.txt") {
		t.Errorf("stderr %q does not name the file", stderr.String())
	}
}

// TestRunGenThenStats: a workload written with -gen -out reads back through
// -stats -trace with the statistics of the workload generated.
func TestRunGenThenStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-gen", "-n", "24", "-coflows", "40", "-seed", "3", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("-gen: exit %d: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-gen -out wrote %d bytes to stdout", stdout.Len())
	}
	if code := run([]string{"-stats", "-trace", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("-stats: exit %d: %s", code, stderr.String())
	}
	coflows, err := workload.Generate(workload.GenConfig{N: 24, NumCoflows: 40, Seed: 3, MinDemand: 400})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stdout.String(), workload.Summarize(coflows).String(); got != want {
		t.Errorf("-stats on the written trace:\n%s\nwant, from the generated workload:\n%s", got, want)
	}
}
