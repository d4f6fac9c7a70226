package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"reco/internal/matrix"
)

// ErrBadTrace reports a malformed coflow-benchmark trace.
var ErrBadTrace = errors.New("workload: malformed trace")

// DefaultTicksPerMB converts trace flow sizes (MB) to ticks: with 1 tick =
// 1 µs of transmission at 100 Gb/s, one megabyte takes 80 µs.
const DefaultTicksPerMB = 80

// maxTraceCells bounds the demand cells a trace header may make ParseTrace
// allocate, numRacks² per coflow: 2²⁵ (256 MB), the most recod's workload
// endpoint generates at its default body cap. The Facebook trace (150
// racks, 526 coflows) needs 11.8 M.
const maxTraceCells = 1 << 25

// ParseTrace reads a workload in the public coflow-benchmark format used by
// Varys and Sunflow (and by the paper's Facebook trace):
//
//	<numRacks> <numCoflows>
//	<id> <arrivalMillis> <numMappers> <m1> ... <numReducers> <r1:sizeMB> ...
//
// Each reducer's shuffle volume is split uniformly across the coflow's
// mappers (Sec. V-A). ticksPerMB converts megabytes to integer ticks; pass
// DefaultTicksPerMB for the repository's canonical time base. Rack indices
// may be 0- or 1-based; 1-based files are detected and shifted.
func ParseTrace(r io.Reader, ticksPerMB int64) ([]Coflow, error) {
	if ticksPerMB < 1 {
		return nil, fmt.Errorf("%w: ticksPerMB=%d", ErrBadTrace, ticksPerMB)
	}
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !scan.Scan() {
		return nil, fmt.Errorf("%w: empty input", ErrBadTrace)
	}
	header := strings.Fields(scan.Text())
	if len(header) != 2 {
		return nil, fmt.Errorf("%w: header %q", ErrBadTrace, scan.Text())
	}
	numRacks, err := strconv.Atoi(header[0])
	if err != nil || numRacks < 1 {
		return nil, fmt.Errorf("%w: rack count %q", ErrBadTrace, header[0])
	}
	numCoflows, err := strconv.Atoi(header[1])
	if err != nil || numCoflows < 0 {
		return nil, fmt.Errorf("%w: coflow count %q", ErrBadTrace, header[1])
	}
	if n, k := numRacks, numCoflows; n > maxTraceCells/n || (k > 0 && n*n > maxTraceCells/k) {
		return nil, fmt.Errorf("%w: %d racks × %d coflows is more than %d demand cells", ErrBadTrace, n, k, maxTraceCells)
	}

	type rawFlow struct {
		mapper, reducer int
		ticks           int64
	}
	type rawCoflow struct {
		id    int
		flows []rawFlow
	}
	var raws []rawCoflow
	minRack, maxRack := 1<<30, -1

	line := 1
	for scan.Scan() {
		line++
		text := strings.TrimSpace(scan.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		pos := 0
		next := func() (string, error) {
			if pos >= len(fields) {
				return "", fmt.Errorf("%w: line %d truncated", ErrBadTrace, line)
			}
			f := fields[pos]
			pos++
			return f, nil
		}
		idStr, err := next()
		if err != nil {
			return nil, err
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d coflow id %q", ErrBadTrace, line, idStr)
		}
		if _, err := next(); err != nil { // arrival time: all coflows start at 0 (Sec. II-A)
			return nil, err
		}
		nmStr, err := next()
		if err != nil {
			return nil, err
		}
		nm, err := strconv.Atoi(nmStr)
		if err != nil || nm < 1 {
			return nil, fmt.Errorf("%w: line %d mapper count %q", ErrBadTrace, line, nmStr)
		}
		if nm > len(fields)-pos { // checked before the mappers are allocated
			return nil, fmt.Errorf("%w: line %d truncated", ErrBadTrace, line)
		}
		mappers := make([]int, nm)
		for i := range mappers {
			s, err := next()
			if err != nil {
				return nil, err
			}
			m, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d mapper %q", ErrBadTrace, line, s)
			}
			mappers[i] = m
			minRack = minInt(minRack, m)
			maxRack = maxInt(maxRack, m)
		}
		nrStr, err := next()
		if err != nil {
			return nil, err
		}
		nr, err := strconv.Atoi(nrStr)
		if err != nil || nr < 1 {
			return nil, fmt.Errorf("%w: line %d reducer count %q", ErrBadTrace, line, nrStr)
		}
		var flows []rawFlow
		for i := 0; i < nr; i++ {
			s, err := next()
			if err != nil {
				return nil, err
			}
			parts := strings.SplitN(s, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("%w: line %d reducer spec %q", ErrBadTrace, line, s)
			}
			rr, err := strconv.Atoi(parts[0])
			if err != nil {
				return nil, fmt.Errorf("%w: line %d reducer rack %q", ErrBadTrace, line, parts[0])
			}
			mb, err := strconv.ParseFloat(parts[1], 64)
			if err != nil || mb < 0 || math.IsNaN(mb) || math.IsInf(mb, 0) {
				return nil, fmt.Errorf("%w: line %d reducer size %q", ErrBadTrace, line, parts[1])
			}
			if mb*float64(ticksPerMB) >= math.MaxInt64/2 {
				return nil, fmt.Errorf("%w: line %d reducer size %q overflows the tick clock", ErrBadTrace, line, parts[1])
			}
			minRack = minInt(minRack, rr)
			maxRack = maxInt(maxRack, rr)
			perMapper := int64(mb * float64(ticksPerMB) / float64(nm))
			if perMapper < 1 && mb > 0 {
				perMapper = 1
			}
			if perMapper == 0 {
				continue
			}
			for _, m := range mappers {
				flows = append(flows, rawFlow{mapper: m, reducer: rr, ticks: perMapper})
			}
		}
		raws = append(raws, rawCoflow{id: id, flows: flows})
	}
	if err := scan.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if len(raws) != numCoflows {
		return nil, fmt.Errorf("%w: header promises %d coflows, found %d", ErrBadTrace, numCoflows, len(raws))
	}

	shift := 0
	if maxRack >= numRacks {
		if minRack < 1 || maxRack > numRacks {
			return nil, fmt.Errorf("%w: rack indices span [%d,%d] for %d racks", ErrBadTrace, minRack, maxRack, numRacks)
		}
		shift = 1 // 1-based rack indexing
	}

	out := make([]Coflow, 0, len(raws))
	for _, rc := range raws {
		d, err := matrix.New(numRacks)
		if err != nil {
			return nil, err
		}
		for _, f := range rc.flows {
			d.Add(f.mapper-shift, f.reducer-shift, f.ticks)
		}
		out = append(out, Coflow{ID: rc.id, Weight: 1, Demand: d})
	}
	return out, nil
}

// WriteTrace serializes coflows back into the coflow-benchmark format with
// 1-based rack indices, making generated workloads portable to other coflow
// simulators. Flow sizes are emitted in MB using the same conversion as
// ParseTrace; per-mapper demand is aggregated back into per-reducer totals.
// A coflow with no demand has no line, and the header counts the lines.
func WriteTrace(w io.Writer, coflows []Coflow, numRacks int, ticksPerMB int64) error {
	if ticksPerMB < 1 {
		return fmt.Errorf("%w: ticksPerMB=%d", ErrBadTrace, ticksPerMB)
	}
	var lines []string
	for _, c := range coflows {
		d := c.Demand
		n := d.N()
		var mappers []int
		reducerTotal := make(map[int]int64)
		for i := 0; i < n; i++ {
			has := false
			for j := 0; j < n; j++ {
				if v := d.At(i, j); v > 0 {
					has = true
					reducerTotal[j] += v
				}
			}
			if has {
				mappers = append(mappers, i)
			}
		}
		if len(mappers) == 0 {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d 0 %d", c.ID, len(mappers))
		for _, m := range mappers {
			fmt.Fprintf(&b, " %d", m+1)
		}
		var reducers []int
		for j := 0; j < n; j++ {
			if reducerTotal[j] > 0 {
				reducers = append(reducers, j)
			}
		}
		fmt.Fprintf(&b, " %d", len(reducers))
		for _, j := range reducers {
			fmt.Fprintf(&b, " %d:%.3f", j+1, float64(reducerTotal[j])/float64(ticksPerMB))
		}
		b.WriteByte('\n')
		lines = append(lines, b.String())
	}
	if _, err := fmt.Fprintf(w, "%d %d\n", numRacks, len(lines)); err != nil {
		return err
	}
	for _, line := range lines {
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
