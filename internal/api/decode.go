package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"reco/internal/algo"
	"reco/internal/matrix"
	"reco/internal/obs"
)

// decoded is what the three scheduling decoders hand their handlers: the
// resolved algorithm name, the registry request, and the SLA pair that
// never reaches the scheduler.
type decoded struct {
	name       string
	req        algo.Request
	deadlineMS int64
	weight     float64
}

// The scheduling endpoints decode a body twice over at most. parser is a
// strict one-pass reader of the canonical grammar — the objects
// json.Marshal emits for SingleRequest, MultiRequest and JobRequest, keys
// in any order, JSON whitespace between tokens — that writes demand
// integers straight into a matrix's row-major cells. It is sound, not
// complete: on anything else (string escapes or non-ASCII, null, a
// fraction or exponent in an integer field, an unknown, case-variant or
// duplicate key, an empty array, a negative or > int64 cell, trailing
// bytes) it gives up, and the same bytes go through the reference decoders
// below, which own every error message and all lenient-JSON behaviour.
// FuzzDecodeSoundness holds the two to the same answer.

// decodeSingle decodes a POST /v1/schedule/single body.
func decodeSingle(body []byte) (decoded, error) {
	p := parser{b: body}
	if d, ok := p.request(false); ok && p.end() {
		return d, nil
	}
	countFallback("single")
	return refSingle(body)
}

// decodeMulti decodes a POST /v1/schedule/multi body.
func decodeMulti(body []byte) (decoded, error) {
	p := parser{b: body}
	if d, ok := p.request(true); ok && p.end() {
		return d, nil
	}
	countFallback("multi")
	return refMulti(body)
}

// decodeJob decodes a POST /v1/jobs body into its kind and nested request.
func decodeJob(body []byte) (string, decoded, error) {
	p := parser{b: body}
	if kind, d, ok := p.job(); ok && p.end() {
		return kind, d, nil
	}
	countFallback("job")
	return refJob(body)
}

func countFallback(endpoint string) {
	obs.Current().Inc(obs.L("api_decode_fallback_total", "endpoint", endpoint))
}

// decodeStrict is the reference decode of one JSON value into dst:
// encoding/json with unknown fields rejected.
func decodeStrict(body []byte, dst interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %v", err)
	}
	return nil
}

func refSingle(body []byte) (decoded, error) {
	var req SingleRequest
	if err := decodeStrict(body, &req); err != nil {
		return decoded{}, err
	}
	return req.decoded()
}

func refMulti(body []byte) (decoded, error) {
	var req MultiRequest
	if err := decodeStrict(body, &req); err != nil {
		return decoded{}, err
	}
	return req.decoded()
}

func refJob(body []byte) (string, decoded, error) {
	var req JobRequest
	if err := decodeStrict(body, &req); err != nil {
		return "", decoded{}, err
	}
	var d decoded
	var err error
	switch {
	case req.Kind == "single" && req.Single != nil:
		d, err = req.Single.decoded()
	case req.Kind == "multi" && req.Multi != nil:
		d, err = req.Multi.decoded()
	default:
		err = errors.New(`kind must be "single" or "multi" with the matching request field set`)
	}
	return req.Kind, d, err
}

func (r SingleRequest) decoded() (decoded, error) {
	name, areq, err := r.toAlgo()
	return decoded{name: name, req: areq, deadlineMS: r.DeadlineMS, weight: r.Weight}, err
}

func (r MultiRequest) decoded() (decoded, error) {
	name, areq, err := r.toAlgo()
	return decoded{name: name, req: areq, deadlineMS: r.DeadlineMS, weight: r.Weight}, err
}

// parser is the fast path's cursor over one request body. Every method
// reports ok = false to give up; the position is then meaningless.
type parser struct {
	b []byte
	i int
}

// Request keys, as bits of the duplicate-detection mask.
const (
	keyDemand = 1 << iota
	keyWeights
	keyDelta
	keyC
	keyAlgorithm
	keyDeadlineMS
	keyWeight
	keyKnob // the bit of algo.KnobTable[0]; row i's is keyKnob << i
)

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// skip returns the first index at or after i that is not JSON whitespace.
// It runs twice per matrix cell, hence the one-compare test that lets a
// digit or comma through before the four of isSpace.
func skip(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && isSpace(b[i]) {
		i++
	}
	return i
}

// expect returns the index just past c when c is the first byte at or
// after i that is not whitespace, and -1 otherwise.
func expect(b []byte, i int, c byte) int {
	if i = skip(b, i); i < len(b) && b[i] == c {
		return i + 1
	}
	return -1
}

// eat skips whitespace and consumes c if it is next.
func (p *parser) eat(c byte) bool {
	p.i = skip(p.b, p.i)
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (p *parser) end() bool {
	return skip(p.b, p.i) == len(p.b)
}

// str reads a string of printable ASCII without escapes and returns its
// bytes, a view into the body.
func (p *parser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// digits reads a JSON integer magnitude — 0, or a non-zero digit followed
// by digits — of at most 19 digits, which cannot wrap a uint64.
func (p *parser) digits() (uint64, bool) {
	b, i := p.b, p.i
	var v uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
	}
	nd := i - p.i
	if nd == 0 || nd > 19 || (nd > 1 && b[p.i] == '0') {
		return 0, false
	}
	p.i = i
	return v, true
}

// int64 reads a JSON integer that fits an int64.
func (p *parser) int64() (int64, bool) {
	neg := p.eat('-')
	v, ok := p.digits()
	switch {
	case !ok:
		return 0, false
	case neg && v <= 1<<63:
		return -int64(v), true // -(1<<63) wraps to MinInt64, as it should
	case !neg && v <= math.MaxInt64:
		return int64(v), true
	}
	return 0, false
}

// int reads a JSON integer that fits the platform's int.
func (p *parser) int() (int, bool) {
	v, ok := p.int64()
	return int(v), ok && int64(int(v)) == v
}

// float64 reads a JSON number the way encoding/json stores one into a
// float64: the literal through strconv.ParseFloat, out-of-range rejected.
func (p *parser) float64() (float64, bool) {
	p.i = skip(p.b, p.i)
	start := p.i
	p.eat('-')
	// Unlike an integer field's, the magnitude may run past 19 digits:
	// json.Marshal writes 1e20 out in full.
	if whole := p.i; !p.digitRun() || (p.i-whole > 1 && p.b[whole] == '0') {
		return 0, false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digitRun() {
			return 0, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digitRun() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return v, err == nil
}

// digitRun consumes one or more digits.
func (p *parser) digitRun() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
		p.i++
	}
	return p.i > start
}

// floats reads a non-empty array of numbers.
func (p *parser) floats() ([]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	var out []float64
	for {
		v, ok := p.float64()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if p.eat(']') {
			return out, true
		}
		if !p.eat(',') {
			return nil, false
		}
	}
}

// fourZeros is "0,0,0,0," read as a little-endian word: four canonical zero
// cells, none of them the last of its row.
const fourZeros = 0x2c302c302c302c30

// stackPorts is the widest matrix whose column accumulators the parser
// keeps on its stack; a wider one buys them with one allocation.
const stackPorts = 256

// portAcc accumulates one column's sum and non-zero count while its matrix
// is parsed.
type portAcc struct {
	sum int64
	cnt int
}

// matrix reads a square array of rows of non-negative integers into a
// matrix from the pool (matrix.Acquire) that carries the summary (ρ, τ,
// total, non-zero count, largest entry, overflow flag) of what was read:
// the one pass that has to touch every cell of the body is the only one the
// request path makes over the zeros. A matrix the parser gives up on
// midway is left to the collector.
func (p *parser) matrix() (*matrix.Matrix, bool) {
	if !p.eat('[') || !p.eat('[') {
		return nil, false
	}
	// The first row's commas give n before anything is allocated. A square
	// matrix of n² cells cannot be written in fewer than 2n²−1 bytes (a
	// digit per cell, a separator between cells), so a body too short for
	// that is not square and never gets its n² cells: one long row in a
	// 2 MB body would otherwise ask for terabytes.
	n := 1
scan:
	for j := p.i; ; j++ {
		if j == len(p.b) {
			return nil, false
		}
		switch c := p.b[j]; {
		case c == ',':
			n++
		case c == ']':
			break scan
		case c-'0' > 9 && !isSpace(c):
			return nil, false
		}
	}
	if n > (len(p.b)-p.i+1)/2/n {
		return nil, false
	}
	m := matrix.Acquire(n)
	cells := m.Cells() // filled here, then the summary is installed
	var colBuf [stackPorts]portAcc
	cols := colBuf[:]
	if n > stackPorts {
		cols = make([]portAcc, n)
	}
	cols = cols[:n]
	// The summary is gathered in locals: sums that wrap int64 leave their
	// sign bit in wrapped, since entries are non-negative and a sum past
	// MaxInt64 shows as a negative value at the step that takes it there.
	var rho, total, maxEntry, wrapped int64
	tau, nonZeros := 0, 0
	b, i := p.b, p.i
	for row := 0; row < n; row++ {
		if row > 0 {
			if i = expect(b, i, ']'); i < 0 {
				return nil, false
			}
			if i = expect(b, i, ','); i < 0 {
				return nil, false
			}
			if i = expect(b, i, '['); i < 0 {
				return nil, false
			}
		}
		var rowSum int64
		rowStart := nonZeros
		// This loop is the request path's hottest. Each step tries the
		// canonical byte first and looks for whitespace only when it is not
		// there, and zero cells — already what Acquire left in out — are
		// passed over four at a time while the body reads "0,0,0,0,".
		for col, out := 0, cells[row*n:(row+1)*n]; col < n; col++ {
			if col > 0 {
				if i < len(b) && b[i] == ',' {
					i++
				} else if i = expect(b, i, ','); i < 0 {
					return nil, false
				}
			}
			if i < len(b) && b[i] == '0' {
				for col+4 < n && i+8 <= len(b) && binary.LittleEndian.Uint64(b[i:]) == fourZeros {
					i += 8
					col += 4
				}
			}
			if i < len(b) && b[i] <= ' ' {
				i = skip(b, i)
			}
			start := i
			var v uint64
			for ; i < len(b); i++ {
				c := b[i] - '0'
				if c > 9 {
					break
				}
				v = v*10 + uint64(c)
			}
			// As in digits: at most 19 digits cannot wrap v.
			if nd := i - start; nd != 1 && (nd == 0 || nd > 19 || b[start] == '0' || v > math.MaxInt64) {
				return nil, false
			}
			if v == 0 {
				continue
			}
			x := int64(v)
			out[col] = x
			c := &cols[col]
			c.sum += x
			c.cnt++
			rowSum += x
			nonZeros++
			wrapped |= rowSum | c.sum
			if x > maxEntry {
				maxEntry = x
			}
		}
		total += rowSum
		rho = max(rho, rowSum)
		tau = max(tau, nonZeros-rowStart)
	}
	p.i = i
	if !p.eat(']') || !p.eat(']') {
		return nil, false
	}
	for _, c := range cols {
		rho = max(rho, c.sum)
		tau = max(tau, c.cnt)
	}
	m.SetSummary(matrix.Summary{
		Rho: rho, Tau: tau, Total: total, NonZeros: nonZeros, MaxEntry: maxEntry, Overflow: wrapped < 0,
	})
	return m, true
}

// matrices reads a non-empty array of matrices.
func (p *parser) matrices() ([]*matrix.Matrix, bool) {
	if !p.eat('[') {
		return nil, false
	}
	var out []*matrix.Matrix
	for {
		m, ok := p.matrix()
		if !ok {
			return nil, false
		}
		out = append(out, m)
		if p.eat(']') {
			return out, true
		}
		if !p.eat(',') {
			return nil, false
		}
	}
}

// request reads a SingleRequest object, or a MultiRequest object when
// multi is set, applying the defaults toAlgo applies.
func (p *parser) request(multi bool) (decoded, bool) {
	var d decoded
	if multi {
		d.name = algo.NameRecoMul
	} else {
		d.name = algo.NameRecoSin
		d.req.C, d.req.NoFlows = defaultC, true
	}
	if !p.eat('{') {
		return d, false
	}
	seen := 0
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return d, false
		}
		bit := 0
		switch string(key) {
		case "demand":
			if multi {
				return d, false
			}
			var m *matrix.Matrix
			m, ok = p.matrix()
			d.req.Demands = []*matrix.Matrix{m}
			bit = keyDemand
		case "demands":
			if !multi {
				return d, false
			}
			d.req.Demands, ok = p.matrices()
			bit = keyDemand
		case "weights":
			if !multi {
				return d, false
			}
			d.req.Weights, ok = p.floats()
			bit = keyWeights
		case "c":
			if !multi {
				return d, false
			}
			d.req.C, ok = p.int64()
			bit = keyC
		case "delta":
			d.req.Delta, ok = p.int64()
			bit = keyDelta
		case "algorithm":
			var name []byte
			if name, ok = p.str(); len(name) > 0 {
				d.name = string(name)
			}
			bit = keyAlgorithm
		case "deadline_ms":
			d.deadlineMS, ok = p.int64()
			bit = keyDeadlineMS
		case "weight":
			d.weight, ok = p.float64()
			bit = keyWeight
		default:
			idx := algo.KnobIndex(key)
			if idx < 0 {
				return d, false
			}
			if kn := &algo.KnobTable[idx]; kn.Float {
				var v float64
				v, ok = p.float64()
				d.req.Knobs = kn.SetFloat(d.req.Knobs, v)
			} else {
				var v int
				v, ok = p.int()
				d.req.Knobs = kn.SetInt(d.req.Knobs, v)
			}
			bit = keyKnob << idx
		}
		if !ok || seen&bit != 0 {
			return d, false
		}
		seen |= bit
		if p.eat('}') {
			return d, seen&keyDemand != 0
		}
		if !p.eat(',') {
			return d, false
		}
	}
}

// job reads a JobRequest object whose kind names the nested request it
// carries.
func (p *parser) job() (kind string, d decoded, ok bool) {
	if !p.eat('{') {
		return "", d, false
	}
	var single, multi decoded
	var hasKind, hasSingle, hasMulti bool
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return "", d, false
		}
		dup := false
		switch string(key) {
		case "kind":
			var k []byte
			k, ok = p.str()
			kind, dup, hasKind = string(k), hasKind, true
		case "single":
			single, ok = p.request(false)
			dup, hasSingle = hasSingle, true
		case "multi":
			multi, ok = p.request(true)
			dup, hasMulti = hasMulti, true
		default:
			return "", d, false
		}
		if !ok || dup {
			return "", d, false
		}
		if p.eat('}') {
			break
		}
		if !p.eat(',') {
			return "", d, false
		}
	}
	switch {
	case kind == "single" && hasSingle:
		return kind, single, true
	case kind == "multi" && hasMulti:
		return kind, multi, true
	}
	return "", d, false
}
