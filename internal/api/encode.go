package api

import (
	"strconv"

	"reco/internal/algo"
	"reco/internal/ocs"
)

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
			if a.Perm == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j, out := range a.Perm {
					if j > 0 {
						b = append(b, ',')
					}
					if out == -1 { // an idle port: most of a sparse schedule
						b = append(b, "-1"...)
					} else {
						b = strconv.AppendInt(b, int64(out), 10)
					}
				}
				b = append(b, ']')
			}
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
		b = append(b, `,"in":`...)
		b = strconv.AppendInt(b, int64(f.In), 10)
		b = append(b, `,"out":`...)
		b = strconv.AppendInt(b, int64(f.Out), 10)
		b = append(b, `,"coflow":`...)
		b = strconv.AppendInt(b, int64(f.Coflow), 10)
		b = append(b, '}')
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
