// Package gantt renders flow-level schedules as ASCII time/port charts —
// the debugging view for everything the schedulers produce. Each ingress
// port is one row; time runs left to right in fixed-width buckets; a cell
// shows which coflow is transmitting.
package gantt

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"reco/internal/schedule"
)

// ErrBadWidth reports a non-positive chart width.
var ErrBadWidth = errors.New("gantt: width must be positive")

// symbols are the per-coflow cell glyphs; coflows beyond the alphabet wrap.
const symbols = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

// RenderFlows draws a flow schedule on an n-port fabric as one row per
// ingress port, width columns wide. A letter identifies the coflow
// transmitting on the port in that time bucket; '.' is idle; '*' marks a
// bucket where more than one interval touches the port (which a valid
// schedule only produces when two intervals share one bucket boundary).
func RenderFlows(s schedule.FlowSchedule, n, width int) (string, error) {
	if width <= 0 {
		return "", fmt.Errorf("%w: %d", ErrBadWidth, width)
	}
	makespan := s.Makespan()
	if makespan == 0 {
		return "(empty schedule)\n", nil
	}
	grid := make([][]byte, n)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", width))
	}
	bucket := func(t int64) int {
		b := int(t * int64(width) / makespan)
		if b >= width {
			b = width - 1
		}
		return b
	}
	for _, f := range s {
		if f.In < 0 || f.In >= n {
			return "", fmt.Errorf("gantt: interval uses ingress %d outside fabric of %d", f.In, n)
		}
		sym := symbols[f.Coflow%len(symbols)]
		lo, hi := bucket(f.Start), bucket(f.End-1)
		for b := lo; b <= hi; b++ {
			switch grid[f.In][b] {
			case '.':
				grid[f.In][b] = sym
			case sym:
			default:
				grid[f.In][b] = '*'
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %d ticks, %d ticks/column\n", makespan, (makespan+int64(width)-1)/int64(width))
	for i, row := range grid {
		fmt.Fprintf(&b, "in%-3d |%s|\n", i, row)
	}
	return b.String(), nil
}

// Legend returns the coflow-to-glyph mapping for the coflows present in s,
// sorted by coflow index.
func Legend(s schedule.FlowSchedule) string {
	seen := map[int]bool{}
	for _, f := range s {
		seen[f.Coflow] = true
	}
	ids := make([]int, 0, len(seen))
	for k := range seen {
		ids = append(ids, k)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, k := range ids {
		fmt.Fprintf(&b, "%c=coflow %d  ", symbols[k%len(symbols)], k)
	}
	if b.Len() > 0 {
		b.WriteByte('\n')
	}
	return b.String()
}
