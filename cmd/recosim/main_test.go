package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"reco/internal/algo"
)

// docCommentAlgorithms extracts the algorithm names listed in main.go's doc
// comment: the first field of every indented comment line between the
// "capabilities:" marker and the "Example:" marker.
func docCommentAlgorithms(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("main.go")
	if err != nil {
		t.Fatalf("open main.go: %v", err)
	}
	defer f.Close()
	var names []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "package ") {
			break
		}
		if strings.Contains(line, "capabilities:") {
			in = true
			continue
		}
		if strings.Contains(line, "Example:") {
			break
		}
		if in && strings.HasPrefix(line, "//\t") {
			fields := strings.Fields(strings.TrimPrefix(line, "//\t"))
			if len(fields) > 0 {
				names = append(names, fields[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan main.go: %v", err)
	}
	return names
}

// TestUsageCommentMatchesRegistry keeps the command's doc comment in sync
// with the scheduler registry: same names, same order, nothing stale and
// nothing missing.
func TestUsageCommentMatchesRegistry(t *testing.T) {
	doc := docCommentAlgorithms(t)
	reg := algo.Names()
	if len(doc) == 0 {
		t.Fatal("no algorithm lines found in the doc comment")
	}
	if fmt.Sprint(doc) != fmt.Sprint(reg) {
		t.Fatalf("doc comment algorithms %v\nregistry %v\nupdate the usage comment atop main.go", doc, reg)
	}
}

// TestReadmeListsRegistry: every registered algorithm appears backticked in
// the repository README's algorithm list.
func TestReadmeListsRegistry(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	var missing []string
	for _, name := range algo.Names() {
		if !strings.Contains(string(readme), "`"+name+"`") {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("README.md does not mention registered algorithms %v (backticked)", missing)
	}
}

// exitCode runs recosim on a tiny synthetic workload and returns its exit code.
func exitCode(args ...string) int {
	return run(append([]string{"-n", "4", "-coflows", "1"}, args...))
}

// TestKnobFlags iterates algo.KnobTable and proves each row is wired into
// recosim: the flag exists, its range and capability are enforced before
// any scheduling work, and -faults (which always plans with Reco-Sin)
// accepts only an unset knob. The usage comment lists the flag with the
// row's help text.
func TestKnobFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for i := range algo.KnobTable {
		kn := &algo.KnobTable[i]
		flag := "-" + kn.Flag()
		var capable string
		for _, s := range algo.All() {
			if algo.CheckKnobs(s, setKnob(kn, kn.Max)) == nil {
				capable = s.Name()
			}
		}
		if capable == "" {
			t.Fatalf("%s: no registered algorithm has the %s capability", flag, kn.Cap)
		}
		cases := []struct {
			args []string
			want int
		}{
			{[]string{flag, num(kn.Unset), "-alg", "list"}, 0}, // the flag exists
			{[]string{flag, num(kn.Unset), "-alg", algo.NameRecoSin}, 0},
			{[]string{flag, num(kn.Unset), "-faults"}, 0},
			{[]string{flag, num(kn.Max), "-alg", capable}, 0},
			{[]string{flag, num(kn.Max), "-alg", algo.NameRecoSin}, 1},
			{[]string{flag, num(kn.Max), "-alg", capable, "-faults"}, 1},
			{[]string{flag, num(kn.Min - 1), "-alg", capable}, 1},
			{[]string{flag, num(kn.Max + 1), "-alg", capable}, 1},
			{[]string{flag, "bogus"}, 2},
		}
		for _, tc := range cases {
			if got := exitCode(tc.args...); got != tc.want {
				t.Errorf("recosim %v: exit %d, want %d", tc.args, got, tc.want)
			}
		}
		if line := fmt.Sprintf("//\t%-11s %s\n", flag, kn.Usage()); !strings.Contains(string(src), line) {
			t.Errorf("usage comment atop main.go lacks the line\n%s", line)
		}
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// setKnob returns Knobs with only kn set, to v (truncated for an int knob).
func setKnob(kn *algo.Knob, v float64) algo.Knobs {
	if kn.Float {
		return kn.SetFloat(algo.Knobs{}, v)
	}
	return kn.SetInt(algo.Knobs{}, int(v))
}

// TestCoresValidation: a negative -cores, one above algo.MaxCores and -cores
// with -faults are rejected before any work, and K > 1 requires the cores
// capability. The K = 200000 case used to die allocating 200000 64×64
// demand shares.
func TestCoresValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-cores", "-3"}, 1},
		{[]string{"-cores", "0"}, 0},
		{[]string{"-cores", "2", "-faults"}, 1},
		{[]string{"-cores", "1", "-faults"}, 0},
		{[]string{"-cores", "4", "-alg", "kcore"}, 0},
		{[]string{"-cores", "2", "-alg", "reco-sin"}, 1},
		{[]string{"-cores", "1", "-alg", "reco-sin"}, 0},
		{[]string{"-cores", "200000", "-alg", "kcore", "-n", "64"}, 1},
	} {
		if got := exitCode(tc.args...); got != tc.want {
			t.Errorf("recosim %v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestDeltaFloor: the slotted and cost-ratio schedulers need a positive
// delta and say so as a bad request; Reco-Sin runs at delta 0.
func TestDeltaFloor(t *testing.T) {
	for _, tc := range []struct {
		alg  string
		want int
	}{
		{algo.NameHelios, 1},
		{algo.NameEclipse, 1},
		{algo.NameRecoSin, 0},
	} {
		if got := exitCode("-alg", tc.alg, "-delta", "0"); got != tc.want {
			t.Errorf("recosim -alg %s -delta 0: exit %d, want %d", tc.alg, got, tc.want)
		}
	}
}

// TestKValidation: a negative -k and -k with -faults are rejected, and
// k > 0 requires the sparse capability.
func TestKValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-k", "-1"}, 1},
		{[]string{"-k", "4", "-faults"}, 1},
		{[]string{"-k", "0", "-faults"}, 0},
		{[]string{"-k", "8", "-alg", "reco-sparse"}, 0},
		{[]string{"-k", "4", "-alg", "reco-sin"}, 1},
		{[]string{"-k", "0", "-alg", "reco-sin"}, 0},
	} {
		if got := exitCode(tc.args...); got != tc.want {
			t.Errorf("recosim %v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestElecFracValidation: -elec-frac outside [0, 1] — NaN and the
// infinities included, which no ordered comparison against the bounds
// catches — and -elec-frac with -faults are rejected, and a positive
// fraction requires the hybrid capability.
func TestElecFracValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-elec-frac", "-0.1", "-alg", "hybrid-fluid"}, 1},
		{[]string{"-elec-frac", "1.5", "-alg", "hybrid-fluid"}, 1},
		{[]string{"-elec-frac", "NaN", "-alg", "hybrid-fluid"}, 1},
		{[]string{"-elec-frac", "+Inf", "-alg", "hybrid-fluid"}, 1},
		{[]string{"-elec-frac", "-Inf", "-alg", "hybrid-fluid"}, 1},
		{[]string{"-elec-frac", "0.2", "-faults"}, 1},
		{[]string{"-elec-frac", "0", "-faults"}, 0},
		{[]string{"-elec-frac", "0.5", "-alg", "hybrid-fluid"}, 0},
		{[]string{"-elec-frac", "0.2", "-alg", "reco-sin"}, 1},
		{[]string{"-elec-frac", "0", "-alg", "reco-sin"}, 0},
	} {
		if got := exitCode(tc.args...); got != tc.want {
			t.Errorf("recosim %v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestListAlgorithmsOutput: `-alg list` prints one line per registered
// scheduler, leading with its name.
func TestListAlgorithmsOutput(t *testing.T) {
	out := listAlgorithms()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	reg := algo.Names()
	if len(lines) != len(reg) {
		t.Fatalf("list has %d lines for %d registered algorithms:\n%s", len(lines), len(reg), out)
	}
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != reg[i] {
			t.Errorf("line %d = %q, want it to lead with %q", i, line, reg[i])
		}
		if !strings.Contains(line, "[") {
			t.Errorf("line %d missing capability tags: %q", i, line)
		}
	}
}

// TestFaultRatesValidation: -pfail and -setupfail outside their ranges —
// NaN included, which used to pass both checks and run with every port
// failing, or with no setup failure at all — exit 1 before any simulation.
func TestFaultRatesValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-pfail", "NaN"}, 1},
		{[]string{"-setupfail", "NaN"}, 1},
		{[]string{"-pfail", "+Inf"}, 1},
		{[]string{"-setupfail", "-Inf"}, 1},
		{[]string{"-pfail", "1.5"}, 1},
		{[]string{"-setupfail", "1"}, 1},
		{[]string{"-pfail", "0.3", "-setupfail", "0.1"}, 0},
	} {
		args := append([]string{"-faults", "-n", "8", "-coflows", "2"}, tc.args...)
		if got := exitCode(args...); got != tc.want {
			t.Errorf("recosim %v: exit %d, want %d", args, got, tc.want)
		}
	}
}
