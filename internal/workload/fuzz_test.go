package workload

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseTrace hardens the trace parser against malformed input: whatever
// the bytes, it must either return coflows with consistent dimensions or an
// error — never panic, never produce a matrix that violates the fabric size,
// never allocate past its cell cap — and what it returns must write back as
// a trace of the same count.
func FuzzParseTrace(f *testing.F) {
	f.Add("3 2\n1 0 2 1 2 1 3:6.0\n2 100 1 3 2 1:3.0 2:1.5\n")
	f.Add("1 1\n1 0 1 1 1 1:0.5\n")
	f.Add("")
	f.Add("3 1\n")
	f.Add("2 1\n1 0 1 0 1 0:1.0\n")                // 0-indexed racks
	f.Add("2 1\n1 0 1 9 1 1:1.0\n")                // rack out of range
	f.Add("x y\n")                                 // bad header
	f.Add("3 1\n1 0 1 1 1 2:NaN\n")                // bad size
	f.Add("3 1\n1 0 2 1 2 1 3:6.0 junk\n")         // trailing garbage
	f.Add("3 1\n1 0 1 1 2 1:1e308 2:1e308\n")      // overflow-ish sizes
	f.Add("3 2\n1 0 1 1 1 2:0\n2 0 1 1 1 3:1.0\n") // a coflow with no demand
	f.Add("4294967296 1\n1 0 1 1 1 2:1\n")         // racks² wraps to 0 cells
	f.Add("150 1\n1 0 2 1 150 1 75:2.5\n")         // the Facebook trace's fabric

	f.Fuzz(func(t *testing.T, input string) {
		coflows, err := ParseTrace(strings.NewReader(input), 80)
		if err != nil {
			return
		}
		for _, c := range coflows {
			if c.Demand == nil {
				t.Fatal("nil demand without error")
			}
			if c.Demand.HasNegative() {
				t.Fatal("negative demand parsed")
			}
		}
		if len(coflows) == 0 {
			return
		}
		n := coflows[0].Demand.N()
		for _, c := range coflows[1:] {
			if c.Demand.N() != n {
				t.Fatalf("inconsistent fabric sizes %d vs %d", n, c.Demand.N())
			}
		}
		if n*n*len(coflows) > maxTraceCells {
			t.Fatalf("%d coflows of %d racks: more than %d cells", len(coflows), n, maxTraceCells)
		}

		// Written back, the trace has one line per coflow with demand and a
		// header that counts them, and it parses back to that many coflows
		// when it parses at all. Only the count is held: which racks come
		// back depends on the 0- or 1-based guess, and sizes summed per
		// reducer may overflow the tick clock on the way back.
		want := 0
		for _, c := range coflows {
			if c.Demand.NonZeros() > 0 {
				want++
			}
		}
		var b strings.Builder
		if err := WriteTrace(&b, coflows, n, 80); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		if header := fmt.Sprintf("%d %d", n, want); lines[0] != header || len(lines)-1 != want {
			t.Fatalf("wrote header %q and %d lines for %d coflows with demand", lines[0], len(lines)-1, want)
		}
		if back, err := ParseTrace(strings.NewReader(b.String()), 80); err == nil && len(back) != want {
			t.Fatalf("wrote %d coflows, parsed back %d", want, len(back))
		}
	})
}
