package api

import (
	"encoding/binary"
	"slices"
	"strconv"

	"reco/internal/algo"
	"reco/internal/ocs"
)

// smallInts[v+1] is the decimal text of v followed by a comma, for v in
// −1 … 1023: every port of a fabric up to 1024 ports wide and the −1 of an
// idle one. The text (at most five bytes) sits little-endian in the low
// bytes and its length in the top byte, so one 8-byte store writes an
// entry and the length says how much of the store to keep.
var smallInts = func() (t [1025]uint64) {
	for i := range t {
		var w [8]byte
		s := append(strconv.AppendInt(w[:0], int64(i-1), 10), ',') // fills w
		w[7] = byte(len(s))
		t[i] = binary.LittleEndian.Uint64(w[:])
	}
	return t
}()

// appendPerm appends perm as a JSON array. Room for five bytes per entry
// (the widest smallInts text) and the three an 8-byte store writes past the
// last one is reserved once, so each entry is a single store; an entry
// outside the table goes through strconv and the rest is reserved again.
// The comma after the last entry becomes the closing bracket. Appending the
// same text from a string table measured slower, in process and end to end
// (docs/PERF.md, "Response encoding").
func appendPerm(b []byte, perm []int) []byte {
	if perm == nil {
		return append(b, "null"...)
	}
	if len(perm) == 0 {
		return append(b, "[]"...)
	}
	b = slices.Grow(append(b, '['), 5*len(perm)+3)
	for k, out := range perm {
		if v := uint(out + 1); v < uint(len(smallInts)) {
			n, e := len(b), smallInts[v]
			binary.LittleEndian.PutUint64(b[n:n+8], e)
			b = b[:n+int(e>>56)]
		} else {
			b = append(strconv.AppendInt(b, int64(out), 10), ',')
			b = slices.Grow(b, 5*(len(perm)-k-1)+3)
		}
	}
	b[len(b)-1] = ']'
	return b
}

// appendSmall appends v and a comma: its smallInts entry in one 8-byte
// store when there is one and b has room for the store, strconv otherwise.
func appendSmall(b []byte, v int) []byte {
	if u := uint(v + 1); u < uint(len(smallInts)) && cap(b)-len(b) >= 8 {
		n, e := len(b), smallInts[u]
		binary.LittleEndian.PutUint64(b[n:n+8], e)
		return b[:n+int(e>>56)]
	}
	return append(strconv.AppendInt(b, int64(v), 10), ',')
}

// appendSingle appends the single-coflow response for res — byte for byte
// what json.Encoder writes for renderSingle(req, res), trailing newline
// included — straight from the registry result, without the intermediate
// wire structs or reflection.
func appendSingle(b []byte, req algo.Request, res *algo.Result) []byte {
	b = append(b, `{"schedule":[`...)
	// As in renderSingle: only a lone per-coflow circuit schedule is shown.
	if len(res.Schedules) == 1 {
		for i, a := range res.Schedules[0] {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"perm":`...)
			b = appendPerm(b, a.Perm)
			b = append(b, `,"dur":`...)
			b = strconv.AppendInt(b, a.Dur, 10)
			b = append(b, '}')
		}
	}
	b = append(b, `],"cct":`...)
	b = strconv.AppendInt(b, res.CCTs[0], 10)
	b = append(b, `,"reconfigs":`...)
	b = strconv.AppendInt(b, int64(res.Reconfigs), 10)
	b = append(b, `,"lowerBound":`...)
	b = strconv.AppendInt(b, ocs.LowerBound(req.Demands[0], req.Delta), 10)
	return append(b, "}\n"...)
}

// appendMulti is appendSingle's counterpart for renderMulti(res).
func appendMulti(b []byte, res *algo.Result) []byte {
	b = append(b, `{"flows":[`...)
	for i := range res.Flows {
		f := &res.Flows[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"start":`...)
		b = strconv.AppendInt(b, f.Start, 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, f.End, 10)
		if f.Gap != 0 {
			b = append(b, `,"gap":`...)
			b = strconv.AppendInt(b, f.Gap, 10)
		}
		// One reservation covers the three small integers (each text ends
		// in a comma; the last one becomes the closing brace) and the
		// three bytes the last 8-byte store writes past its text.
		b = slices.Grow(b, len(`,"in":"out":"coflow":`)+3*5+3)
		b = append(b, `,"in":`...)
		b = appendSmall(b, f.In)
		b = append(b, `"out":`...)
		b = appendSmall(b, f.Out)
		b = append(b, `"coflow":`...)
		b = appendSmall(b, f.Coflow)
		b[len(b)-1] = '}'
	}
	b = append(b, `],"ccts":`...)
	if res.CCTs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range res.CCTs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, c, 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"reconfigs":`...)
	b = strconv.AppendInt(b, int64(res.Reconfigs), 10)
	return append(b, "}\n"...)
}

// singleSize and multiSize estimate the encoded length of a response, so a
// fresh buffer is made once at about the right size instead of doubling
// its way up: four bytes per port of a permutation, and 72 per flow (the
// keys are 45; measured responses run 55–70).
func singleSize(res *algo.Result) int {
	size := 128
	if len(res.Schedules) == 1 {
		for _, a := range res.Schedules[0] {
			size += 4*len(a.Perm) + 40
		}
	}
	return size
}

func multiSize(res *algo.Result) int {
	return 64 + 72*len(res.Flows) + 12*len(res.CCTs)
}
