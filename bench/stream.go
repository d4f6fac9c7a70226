package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"reco/internal/algo"
	"reco/internal/api"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/workload"
)

// Scheduling parameters shared by the service workloads: the paper's default
// reconfiguration delay (100 ticks) and transmission threshold.
const (
	delta      = 100
	thresholdC = 4
)

// spec describes one service workload: which endpoint it drives and what
// demand it draws. The request list itself is a stream (below).
type spec struct {
	name string
	path string
	alg  string
	n    int // fabric ports
	// coflows is the number of demand matrices per request: 1 on the
	// single endpoint.
	coflows int
	// pool is how many generated matrices the requests cycle through. It
	// is large where the cost of a request depends on its matrix, so that
	// every seed's pool samples the class about as well as every other's
	// and the readings of two seeds can be compared.
	pool int
	// keep filters the generator's output; nil keeps the full Table I/II
	// mix.
	keep func(*matrix.Matrix) bool
	// distinct requests bump one non-zero cell by the request index, so
	// every fingerprint is new and the work is not. Without it the stream
	// repeats its pool and, once primed, every request is a plan-cache hit.
	distinct bool
	// refRequests is the length of the issue's fixed request list; wall_s
	// is the time that list takes at the measured rate.
	refRequests int
	// traced is how many requests the traced replay covers.
	traced int
}

var serviceSpecs = []spec{
	{
		name: "single_dense", path: "/v1/schedule/single", alg: algo.NameRecoSin,
		n: 64, coflows: 1, pool: 1024, distinct: true, refRequests: 2000, traced: 200,
		keep: func(d *matrix.Matrix) bool { return workload.Classify(d) == workload.Dense },
	},
	{
		name: "single_sparse", path: "/v1/schedule/single", alg: algo.NameRecoSin,
		n: 128, coflows: 1, pool: 1024, distinct: true, refRequests: 10000, traced: 200,
		keep: func(d *matrix.Matrix) bool { return workload.Classify(d) == workload.Sparse },
	},
	{
		name: "single_warm", path: "/v1/schedule/single", alg: algo.NameRecoSin,
		n: 64, coflows: 1, pool: 128, distinct: false, refRequests: 8000, traced: 200,
		keep: func(d *matrix.Matrix) bool { return workload.Classify(d) == workload.Dense },
	},
	{
		name: "multi_batch", path: "/v1/schedule/multi", alg: algo.NameRecoMul,
		n: 32, coflows: 16, pool: 16 * 512, distinct: true, refRequests: 4000, traced: 200,
	},
}

// slot is one pool matrix and its lower bound.
type slot struct {
	m *matrix.Matrix
	// lb is ocs.LowerBound of the matrix as generated. A bump only raises
	// the true bound, so cct >= lb stays a valid check on bumped requests.
	lb int64
}

// template is one request body of the stream, encoded once during set-up
// and cut open at the cell distinct requests bump, so building a request in
// the timed loop is a splice and not a JSON encode of the whole matrix.
type template struct {
	prefix, suffix []byte
	base           int64 // the bump cell's generated value
	first          int   // the request's first pool slot
}

// stream is a workload's request list: request i is a function of the seed
// and i alone, so two runs of one seed send byte-identical requests in the
// same order for as long as they last.
type stream struct {
	spec
	slots     []slot
	templates []template // one per coflows consecutive slots
}

// newStream draws the workload's pool from the synthetic Facebook-like
// generator, keeping the matrices spec.keep admits in the proportions the
// generator produces them, and encodes the request templates.
func newStream(sp spec, seed int64) (*stream, error) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(sp.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	st := &stream{spec: sp}
	for len(st.slots) < sp.pool {
		coflows, err := workload.GenerateWith(rng, workload.GenConfig{N: sp.n})
		if err != nil {
			return nil, fmt.Errorf("%s: generating pool: %w", sp.name, err)
		}
		for _, c := range coflows {
			if len(st.slots) == sp.pool {
				break
			}
			if sp.keep != nil && !sp.keep(c.Demand) {
				continue
			}
			st.slots = append(st.slots, slot{m: c.Demand, lb: ocs.LowerBound(c.Demand, delta)})
		}
	}
	for first := 0; first+sp.coflows <= len(st.slots); first += sp.coflows {
		t, err := st.newTemplate(first)
		if err != nil {
			return nil, fmt.Errorf("%s: encoding request template: %w", sp.name, err)
		}
		st.templates = append(st.templates, t)
	}
	return st, nil
}

// sentinel marks the bump cell in an encoded template; no demand is that
// large.
const sentinel = math.MaxInt64

// newTemplate encodes the request over slots first.. with the sentinel in
// the first matrix's first non-zero cell, and cuts the body there.
func (st *stream) newTemplate(first int) (template, error) {
	t := template{first: first}
	demands := make([][][]int64, st.coflows)
	for k := range demands {
		m := st.slots[first+k].m
		demands[k] = make([][]int64, st.n)
		for i := range demands[k] {
			demands[k][i] = make([]int64, st.n)
			for j := range demands[k][i] {
				v := m.At(i, j)
				if k == 0 && v > 0 && t.base == 0 && st.distinct {
					t.base, v = v, sentinel
				}
				demands[k][i][j] = v
			}
		}
	}
	var wire any
	if st.coflows == 1 {
		wire = api.SingleRequest{Demand: demands[0], Delta: delta, Algorithm: st.alg}
	} else {
		wire = api.MultiRequest{Demands: demands, Delta: delta, C: thresholdC, Algorithm: st.alg}
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return template{}, err
	}
	t.prefix = body
	if st.distinct {
		mark := strconv.AppendInt(nil, sentinel, 10)
		at := bytes.Index(body, mark)
		if at < 0 {
			return template{}, fmt.Errorf("pool matrix %d is empty", first)
		}
		t.prefix, t.suffix = body[:at], body[at+len(mark):]
	}
	return t, nil
}

// request is one generated request: the bytes to send and its first pool
// slot.
type request struct {
	body  []byte
	first int
}

// at builds request i: template i mod len(templates), with the bump cell
// raised by the round number when requests are distinct, so the same work
// recurs under a new fingerprint.
func (st *stream) at(i int64) request {
	rounds := int64(len(st.templates))
	t := st.templates[i%rounds]
	if !st.distinct {
		return request{body: t.prefix, first: t.first}
	}
	body := make([]byte, 0, len(t.prefix)+len(t.suffix)+20)
	body = append(body, t.prefix...)
	body = strconv.AppendInt(body, t.base+1+i/rounds, 10)
	body = append(body, t.suffix...)
	return request{body: body, first: t.first}
}

// outcome is what the cheap checks read off one 200 response: the paper's
// two evaluation axes.
type outcome struct {
	ratioSum  float64 // sum over the request's coflows of cct / lower bound
	coflows   int
	reconfigs int
}

// singleReply and multiReply decode a response as far as the per-request
// checks need. The bulky arrays, a permutation per assignment and the flow
// list, stay raw bytes: validated as JSON but not parsed, so checking a
// response costs the load generator far less than producing it cost the
// server. The traced run decodes the same responses into the api package's
// own types.
type singleReply struct {
	Schedule []struct {
		Perm json.RawMessage `json:"perm"`
		Dur  int64           `json:"dur"`
	} `json:"schedule"`
	CCT        int64 `json:"cct"`
	Reconfigs  int   `json:"reconfigs"`
	LowerBound int64 `json:"lowerBound"`
}

type multiReply struct {
	Flows     json.RawMessage `json:"flows"`
	CCTs      []int64         `json:"ccts"`
	Reconfigs int             `json:"reconfigs"`
}

// check decodes a 200 response body and applies the checks every response
// gets: shape, cct >= lower bound and, for Reco-Sin, cct <= 2 x lower bound
// (Theorem 2).
func (st *stream) check(req request, body []byte) (outcome, error) {
	if st.coflows == 1 {
		return st.checkSingle(body)
	}
	return st.checkMulti(req, body)
}

func (st *stream) checkSingle(body []byte) (outcome, error) {
	var resp singleReply
	if err := json.Unmarshal(body, &resp); err != nil {
		return outcome{}, fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Schedule) == 0 || resp.Reconfigs < 1 || resp.Reconfigs > len(resp.Schedule) {
		return outcome{}, fmt.Errorf("schedule of %d assignments with %d reconfigurations", len(resp.Schedule), resp.Reconfigs)
	}
	for u, a := range resp.Schedule {
		if ports := bytes.Count(a.Perm, []byte{','}) + 1; ports != st.n || a.Dur <= 0 {
			return outcome{}, fmt.Errorf("assignment %d: %d ports, duration %d", u, ports, a.Dur)
		}
	}
	if resp.LowerBound <= 0 || resp.CCT < resp.LowerBound || resp.CCT > 2*resp.LowerBound {
		return outcome{}, fmt.Errorf("cct %d outside [lb, 2lb] for lower bound %d", resp.CCT, resp.LowerBound)
	}
	return outcome{
		ratioSum:  float64(resp.CCT) / float64(resp.LowerBound),
		coflows:   1,
		reconfigs: resp.Reconfigs,
	}, nil
}

func (st *stream) checkMulti(req request, body []byte) (outcome, error) {
	var resp multiReply
	if err := json.Unmarshal(body, &resp); err != nil {
		return outcome{}, fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.CCTs) != st.coflows || len(resp.Flows) <= len("[]") || resp.Reconfigs < 1 {
		return outcome{}, fmt.Errorf("%d ccts, %d bytes of flows, %d reconfigurations for %d coflows",
			len(resp.CCTs), len(resp.Flows), resp.Reconfigs, st.coflows)
	}
	out := outcome{coflows: st.coflows, reconfigs: resp.Reconfigs}
	for k, cct := range resp.CCTs {
		lb := st.slots[req.first+k].lb
		if cct < lb {
			return outcome{}, fmt.Errorf("coflow %d: cct %d below its lower bound %d", k, cct, lb)
		}
		out.ratioSum += float64(cct) / float64(lb)
	}
	return out, nil
}
