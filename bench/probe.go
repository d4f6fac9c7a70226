package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"reco/internal/algo"
	"reco/internal/api"
	"reco/internal/bvn"
	"reco/internal/core"
	"reco/internal/matching"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/ordering"
	"reco/internal/packet"
	"reco/internal/plancache"
	"reco/internal/schedule"
)

// prober replays requests one at a time on one goroutine. Each request is
// sent over the loop-back connection, served again by the handler with no
// socket, and then walked through the layers' public functions in pipeline
// order with a span around each call.
type prober struct {
	st    *stream
	svc   *service
	sched algo.Scheduler
	// cache stands in for the server's plan cache, which the probes cannot
	// reach into: a small one, filled before the replay, so every Put lands
	// on a full shard and evicts.
	cache *plancache.Cache
	tr    *tracer
	// sums are the counts taken at the span boundaries, summed over the
	// replay.
	sums map[string]float64
}

func newProber(st *stream, svc *service) (*prober, error) {
	sched, err := algo.Get(st.alg)
	if err != nil {
		return nil, err
	}
	p := &prober{
		st: st, svc: svc, sched: sched,
		cache: plancache.New(plancache.Config{MaxEntries: 256}),
		sums:  map[string]float64{},
	}
	for i := 0; i < 512; i++ {
		p.cache.Put(fmt.Sprintf("filler-%d", i), &algo.Result{CCTs: []int64{1}})
	}
	return p, nil
}

// replay traces request idx of the stream as request number r. twin is a
// second request on the same pool slots under another fingerprint (idx
// itself when the workload repeats its requests): the loop-back call takes
// one and the socketless handler the other, so on a distinct workload
// neither finds the other's plan in the server's cache.
func (p *prober) replay(r int, idx, twin int64) error {
	sent, req := p.st.at(idx), p.st.at(twin)
	root := p.tr.begin("request", r, -1)
	defer p.tr.end(root)

	rt := p.tr.begin("client.roundtrip", r, root)
	status, body, err := p.svc.post(p.st.path, sent.body)
	if err == nil && status == http.StatusOK {
		_, err = p.st.check(sent, body)
	}
	p.tr.end(rt)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("loop-back request: status %d: %v", status, err)
	}

	h := p.tr.begin("api.handler", r, root)
	rec := httptest.NewRecorder()
	p.svc.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, p.st.path, bytes.NewReader(req.body)))
	p.tr.end(h)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler: status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	p.sums["api.req_bytes"] += float64(len(req.body))
	p.sums["api.resp_bytes"] += float64(rec.Body.Len())

	if p.st.coflows == 1 {
		return p.single(r, h, req, rec.Body.Bytes())
	}
	return p.multi(r, h, req, rec.Body.Bytes())
}

// decode is what the handler's readJSON does to a body.
func decode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// single walks a /v1/schedule/single request through the layers and holds
// the handler's response to the deeper checks.
func (p *prober) single(r, h int, req request, respBody []byte) error {
	ctx := context.Background()
	tr := p.tr

	sp := tr.begin("api.decode", r, h)
	var wire api.SingleRequest
	err := decode(req.body, &wire)
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("matrix.fromrows", r, h)
	d, err := matrix.FromRows(wire.Demand)
	tr.end(sp)
	if err != nil {
		return err
	}
	areq := algo.Request{Demands: []*matrix.Matrix{d}, Delta: wire.Delta, C: thresholdC}

	sp = tr.begin("plancache.fingerprint", r, h)
	key := plancache.Fingerprint(p.st.alg, areq)
	tr.end(sp)

	sp = tr.begin("plancache.get", r, h)
	res, hit := p.cache.Get(key)
	tr.end(sp)
	if hit {
		tr.rename(sp, "plancache.get_hit")
	}

	if _, err := p.st.check(req, respBody); err != nil {
		return err
	}
	var resp api.SingleResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("decoding handler response: %w", err)
	}
	cs := make(ocs.CircuitSchedule, len(resp.Schedule))
	for u, a := range resp.Schedule {
		cs[u] = ocs.Assignment{Perm: a.Perm, Dur: a.Dur}
	}

	// On a hit there is no solver span at all: the re-execution below
	// still checks the response, untraced.
	solver, parent := tr, h
	if hit {
		solver = nil
	} else {
		parent = tr.begin("algo.schedule", r, h)
		res, err = p.sched.Schedule(ctx, areq)
		tr.end(parent)
		if err != nil {
			return err
		}
		if err := p.recoSin(r, parent, d, wire.Delta); err != nil {
			return err
		}
	}
	// Re-executing the response's own schedule is both the executor's probe
	// and the check that the schedule is valid and serves the demand with
	// the cct and reconfiguration count the response claims.
	sp = solver.begin("ocs.execallstop", r, parent)
	exec, err := ocs.ExecAllStop(d, cs, wire.Delta)
	solver.end(sp)
	if err != nil {
		return fmt.Errorf("re-executing the response's schedule: %w", err)
	}
	if exec.CCT != resp.CCT || exec.Reconfigs != resp.Reconfigs {
		return fmt.Errorf("re-execution gives cct %d with %d reconfigurations, response says %d with %d",
			exec.CCT, exec.Reconfigs, resp.CCT, resp.Reconfigs)
	}
	if !hit {
		p.sums["ocs.flows"] += float64(len(exec.Flows))
		sp = tr.begin("plancache.put", r, h)
		p.cache.Put(key, res)
		tr.end(sp)
	}
	if res.CCTs[0] != resp.CCT || res.Reconfigs != resp.Reconfigs {
		return fmt.Errorf("probe schedules cct %d, handler answered %d", res.CCTs[0], resp.CCT)
	}

	sp = tr.begin("ocs.lowerbound", r, h)
	lb := ocs.LowerBound(d, wire.Delta)
	tr.end(sp)
	if lb != resp.LowerBound {
		return fmt.Errorf("lower bound %d, response says %d", lb, resp.LowerBound)
	}

	sp = tr.begin("api.encode", r, h)
	out := api.SingleResponse{
		Schedule: make([]api.Assignment, len(res.Schedules[0])),
		CCT:      res.CCTs[0], Reconfigs: res.Reconfigs, LowerBound: lb,
	}
	for u, a := range res.Schedules[0] {
		out.Schedule[u] = api.Assignment{Perm: a.Perm, Dur: a.Dur}
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(out)
	tr.end(sp)
	return err
}

// recoSin times core.RecoSinCtx whole, then the stages it is made of, each
// as its own call on the output of the one before.
func (p *prober) recoSin(r, parent int, d *matrix.Matrix, dl int64) error {
	ctx := context.Background()
	tr := p.tr
	c := tr.begin("core.recosin", r, parent)
	_, err := core.RecoSinCtx(ctx, d, dl)
	tr.end(c)
	if err != nil {
		return err
	}
	// Reco-Sin serves a single-port coflow back to back and never
	// regularizes, stuffs or decomposes it.
	if _, ok := ocs.SinglePortSchedule(d); ok {
		return nil
	}
	sp := tr.begin("core.regularize", r, c)
	reg := core.Regularize(d, dl)
	tr.end(sp)

	sp = tr.begin("matrix.stuff", r, c)
	stuffed := matrix.StuffPreferNonZero(reg)
	tr.end(sp)

	b := tr.begin("bvn.decompose", r, c)
	terms, err := bvn.DecomposeCtx(ctx, stuffed, bvn.MaxMin)
	tr.end(b)
	if err != nil {
		return err
	}
	p.sums["bvn.terms"] += float64(len(terms))

	sp = tr.begin("matching.engine_init", r, b)
	eng := matching.NewEngine(stuffed, matching.Descending)
	tr.end(sp)
	for eng.Remaining() > 0 {
		sp = tr.begin("matching.extract", r, b)
		_, _, err := eng.Extract()
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// multi walks a /v1/schedule/multi request through the layers and holds the
// handler's response to the deeper checks.
func (p *prober) multi(r, h int, req request, respBody []byte) error {
	ctx := context.Background()
	tr := p.tr

	sp := tr.begin("api.decode", r, h)
	var wire api.MultiRequest
	err := decode(req.body, &wire)
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("matrix.fromrows", r, h)
	ds := make([]*matrix.Matrix, len(wire.Demands))
	for k, rows := range wire.Demands {
		if ds[k], err = matrix.FromRows(rows); err != nil {
			break
		}
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	areq := algo.Request{Demands: ds, Weights: wire.Weights, Delta: wire.Delta, C: wire.C}

	sp = tr.begin("plancache.fingerprint", r, h)
	key := plancache.Fingerprint(p.st.alg, areq)
	tr.end(sp)

	sp = tr.begin("plancache.get", r, h)
	_, hit := p.cache.Get(key)
	tr.end(sp)
	if hit {
		return fmt.Errorf("distinct request found in the probe cache")
	}

	s := tr.begin("algo.schedule", r, h)
	res, err := p.sched.Schedule(ctx, areq)
	tr.end(s)
	if err != nil {
		return err
	}

	sp = tr.begin("ordering.primaldual", r, s)
	order, err := ordering.PrimalDual(ds, wire.Weights)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("packet.listschedule", r, s)
	pkt, err := packet.ListSchedule(ds, order)
	tr.end(sp)
	if err != nil {
		return err
	}
	p.sums["packet.flows"] += float64(len(pkt))
	sp = tr.begin("core.recomul", r, s)
	mul, err := core.RecoMul(pkt, ds[0].N(), wire.Delta, wire.C)
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("plancache.put", r, h)
	p.cache.Put(key, res)
	tr.end(sp)

	sp = tr.begin("api.encode", r, h)
	out := api.MultiResponse{Flows: make([]api.Flow, len(res.Flows)), CCTs: res.CCTs, Reconfigs: res.Reconfigs}
	for i, f := range res.Flows {
		out.Flows[i] = api.Flow{Start: f.Start, End: f.End, Gap: f.Gap, In: f.In, Out: f.Out, Coflow: f.Coflow}
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(out)
	tr.end(sp)
	if err != nil {
		return err
	}

	if _, err := p.st.check(req, respBody); err != nil {
		return err
	}
	var resp api.MultiResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("decoding handler response: %w", err)
	}
	flows := make(schedule.FlowSchedule, len(resp.Flows))
	for i, f := range resp.Flows {
		flows[i] = schedule.FlowInterval{Start: f.Start, End: f.End, Gap: f.Gap, In: f.In, Out: f.Out, Coflow: f.Coflow}
	}
	if err := flows.Validate(ds[0].N(), len(ds)); err != nil {
		return err
	}
	if err := flows.CheckDemand(ds); err != nil {
		return err
	}
	if !slices.Equal(flows.CCTs(len(ds)), resp.CCTs) || resp.Reconfigs != mul.Reconfigs || len(resp.Flows) != len(mul.Flows) {
		return fmt.Errorf("response's ccts, %d reconfigurations and %d flows do not follow from the probed pipeline (%d, %d)",
			resp.Reconfigs, len(resp.Flows), mul.Reconfigs, len(mul.Flows))
	}
	return nil
}

// runServiceTraced is the traced run of a service workload. The replay goes
// first, straight after set-up, so the requests it covers (and the exact
// counts) do not depend on how far a timed drive got; the drive that
// follows supplies the process and plan-cache readings under full load.
func runServiceTraced(sp spec, seed int64, d time.Duration, outDir string) (*result, error) {
	st, svc, next, err := setUp(sp, seed)
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	p, err := newProber(st, svc)
	if err != nil {
		return nil, err
	}
	groups := int64(len(st.templates))
	// The twin of request i lies a whole number of rounds over the pool
	// ahead, which puts it on the same slots.
	ahead := (int64(sp.traced) + groups - 1) / groups * groups
	if !sp.distinct {
		ahead = 0
		// Untraced pass over the pool: the probe cache learns every plan,
		// as the server's did during priming.
		for i := int64(0); i < groups; i++ {
			if err := p.replay(-1, i, i); err != nil {
				return nil, fmt.Errorf("%s: priming the probe cache: %w", sp.name, err)
			}
		}
		p.sums = map[string]float64{}
	}
	p.tr = newTracer()
	res := &result{Workload: sp.name, SetupReps: 1, Traced: sp.traced}
	for r := 0; r < sp.traced; r++ {
		idx := next + int64(r)
		err := p.replay(r, idx, idx+ahead)
		if err != nil {
			err = fmt.Errorf("traced request %d: %w", r, err)
		}
		res.count(err)
	}
	next += int64(sp.traced) + ahead
	if res.TraceFile, err = p.tr.write(outDir, sp.name); err != nil {
		return nil, fmt.Errorf("%s: writing the trace: %w", sp.name, err)
	}
	p.addLayers(res)

	hits, misses, evictions := svc.cacheCounters()
	dr := svc.drive(st, next, 0, d)
	if len(dr.samples) == 0 {
		return nil, errNoSamples
	}
	res.Samples = len(dr.samples)
	res.Elapsed = dr.elapsed.Seconds()
	for _, s := range dr.samples {
		res.count(s.err)
	}
	res.addProc(dr.usage, dr.elapsed)
	h2, m2, e2 := svc.cacheCounters()
	if lookups := (h2 - hits) + (m2 - misses); lookups > 0 {
		res.add("plancache.hit_ratio", float64(h2-hits)/float64(lookups))
	}
	res.add("plancache.evictions", float64(e2-evictions))
	return res, nil
}

// cacheCounters reads the plan cache's series off the registry the server
// publishes into.
func (s *service) cacheCounters() (hits, misses, evictions int64) {
	return s.reg.Counter("plancache_hits_total").Value(),
		s.reg.Counter("plancache_misses_total").Value(),
		s.reg.Counter("plancache_evictions_total").Value()
}

// addLayers turns the trace into the per-layer readings: each _us value is
// the total time of the span the metric is named after, divided by the
// requests replayed, so a stage most requests skip still shows its share and
// the values add up along the tree.
func (p *prober) addLayers(res *result) {
	n := float64(p.st.traced)
	layers := p.tr.byLayer()
	res.Layers = table(layers)
	per := func(name string) float64 {
		if l := layers[name]; l != nil {
			return us(l.total) / n
		}
		return 0
	}
	for _, name := range []string{
		"api.decode", "api.encode", "api.handler", "matrix.fromrows", "plancache.fingerprint",
		"plancache.get_hit", "plancache.put", "algo.schedule", "core.regularize", "matrix.stuff",
		"core.recosin", "bvn.decompose", "matching.engine_init", "ocs.execallstop", "ocs.lowerbound",
		"ordering.primaldual", "packet.listschedule", "core.recomul",
	} {
		res.add(name+"_us", per(name))
	}
	for _, count := range []string{"api.req_bytes", "api.resp_bytes", "bvn.terms", "ocs.flows", "packet.flows"} {
		res.add(count, p.sums[count]/n)
	}
	if l := layers["matching.extract"]; l != nil {
		res.add("matching.extract_us", us(l.total)/float64(l.calls))
	}
	if terms := p.sums["bvn.terms"]; terms > 0 {
		res.add("bvn.us_per_term", us(layers["bvn.decompose"].total)/terms)
	}
	res.add("api.transport_us", per("client.roundtrip")-per("api.handler"))
	// Coverage: the leaves under the handler span against the handler
	// itself. The round trip is a leaf too, but not one of the handler's.
	var leaves time.Duration
	for name, l := range layers {
		if name != "client.roundtrip" {
			leaves += l.leaf
		}
	}
	if hd := layers["api.handler"]; hd != nil && hd.total > 0 {
		res.add("trace.coverage", float64(leaves)/float64(hd.total))
	}
	if rt := layers["client.roundtrip"]; rt != nil && rt.total > 0 {
		res.add("trace.overhead_ratio", float64(layers["request"].total)/float64(rt.total))
	}
}
