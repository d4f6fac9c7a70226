// Package api exposes the library as a network service: a JSON-over-HTTP
// scheduling API that a datacenter controller can call to turn coflow
// demand matrices into OCS circuit schedules, plus the matching Go client.
// cmd/recod wraps the server with lifecycle management.
//
// The serving hot path is multi-tenant aware: every schedule computation
// runs behind a plan cache keyed by a canonical fingerprint of the request
// (see internal/plancache) with singleflight coalescing, so repeated and
// concurrent-identical requests cost one solve instead of N. Large
// instances can use the async job API (POST /v1/jobs) instead of holding an
// HTTP connection open.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"reco/internal/algo"
	_ "reco/internal/algo/builtin" // populate the scheduler registry
	"reco/internal/core"
	"reco/internal/hybrid"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
	"reco/internal/plancache"
	"reco/internal/schedule"
	"reco/internal/workload"
)

// DefaultMaxBodyBytes caps request bodies when Options.MaxBodyBytes is
// zero; a 512-port fabric's matrix in JSON is well within this.
const DefaultMaxBodyBytes = 64 << 20

// defaultC is the transmission threshold supplied to schedulers invoked
// through the single-coflow endpoint, whose request shape predates the
// registry and carries no c field. Reco-Sin ignores it; it only shapes the
// hybrid scheduler's elephant threshold (c·delta) and matches recosim's
// default -c.
const defaultC = 4

// Options configures a Server. The zero value serves with a default-sized
// plan cache, coalescing, a lazily started job pool and the default body
// cap.
type Options struct {
	// MaxBodyBytes caps request bodies; exceeding it returns a structured
	// 413. Zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// NoCache disables the plan cache and request coalescing, recomputing
	// every schedule. Differential tests and cold-cache load runs use this.
	NoCache bool
	// Cache sizes the plan cache (zero-value fields take plancache
	// defaults). Keys are exact: a plan answers only the request it was
	// computed for.
	Cache plancache.Config
	// JobWorkers bounds the async job pool (0: RECO_WORKERS or GOMAXPROCS).
	JobWorkers int
	// JobQueue bounds queued-but-not-running jobs; submits beyond it get a
	// 503. Zero means 256.
	JobQueue int
	// JobRetention caps finished jobs retained for status queries; the
	// oldest finished jobs are dropped first. Zero means 1024.
	JobRetention int
}

// Server is one API instance: handlers plus the per-instance serving state
// (plan cache, coalescing group, async job manager).
type Server struct {
	opts  Options
	group *plancache.Group // nil when Options.NoCache
	jobs  *jobManager
}

// NewServer returns a Server over opts. Close releases the job pool.
func NewServer(opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.JobQueue <= 0 {
		opts.JobQueue = 256
	}
	if opts.JobRetention <= 0 {
		opts.JobRetention = 1024
	}
	s := &Server{opts: opts}
	if !opts.NoCache {
		s.group = plancache.NewGroup(plancache.New(opts.Cache))
	}
	s.jobs = newJobManager(opts.JobWorkers, opts.JobQueue, opts.JobRetention)
	return s
}

// Close stops the async job pool, waiting for running jobs to finish.
// In-flight synchronous requests are unaffected.
func (s *Server) Close() {
	s.jobs.close()
}

// Cache returns the server's plan cache, or nil when caching is disabled.
func (s *Server) Cache() *plancache.Cache {
	return s.group.Cache()
}

// schedule is the one scheduling path every consumer goes through — the
// synchronous endpoints and the async job workers alike. It resolves the
// algorithm, then answers from the plan cache, joins an in-flight identical
// computation, or computes (and caches) the result.
func (s *Server) schedule(ctx context.Context, name string, req algo.Request) (*algo.Result, error) {
	sched, err := algo.Get(name)
	if err != nil {
		return nil, err
	}
	if err := algo.CheckKnobs(sched, req.Knobs); err != nil {
		return nil, err
	}
	if s.group == nil {
		return sched.Schedule(ctx, req)
	}
	res, _, err := s.group.Do(ctx, plancache.Fingerprint(name, req), func(ctx context.Context) (*algo.Result, error) {
		return sched.Schedule(ctx, req)
	})
	return res, err
}

// SingleRequest asks for a schedule of one coflow.
type SingleRequest struct {
	// Demand is the square demand matrix in ticks.
	Demand [][]int64 `json:"demand"`
	// Delta is the reconfiguration delay in ticks.
	Delta int64 `json:"delta"`
	// Algorithm names a registered scheduler (GET /v1/algorithms lists
	// them); empty means Reco-Sin, the historical behavior of this
	// endpoint.
	Algorithm string `json:"algorithm,omitempty"`
	// DeadlineMS is the request's SLA in milliseconds (docs/ADMISSION.md).
	// On the synchronous endpoints it bounds the computation (a structured
	// 504 past it); on the job API it drives admission and miss reporting.
	// Zero means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Weight is the request's importance to admission control; higher
	// weights are shed last. Zero means 1. It never affects the computed
	// schedule (or its cache key), only which work survives overload.
	Weight float64 `json:"weight,omitempty"`
	// Knobs are the optional tuning fields, one wire key per row of
	// algo.KnobTable. Embedded last, so they follow the fields above in
	// json.Marshal output.
	algo.Knobs
}

// toAlgo validates the request into the registry shape. The single-coflow
// response carries no flows, so the request asks for none.
func (r SingleRequest) toAlgo() (string, algo.Request, error) {
	d, err := matrix.FromRows(r.Demand)
	if err != nil {
		return "", algo.Request{}, fmt.Errorf("demand: %w", err)
	}
	name := r.Algorithm
	if name == "" {
		name = algo.NameRecoSin
	}
	return name, algo.Request{Demands: []*matrix.Matrix{d}, Delta: r.Delta, C: defaultC, Knobs: r.Knobs, NoFlows: true}, nil
}

// Assignment mirrors ocs.Assignment for the wire.
type Assignment struct {
	Perm []int `json:"perm"`
	Dur  int64 `json:"dur"`
}

// SingleResponse is the scheduled outcome of one coflow.
type SingleResponse struct {
	Schedule   []Assignment `json:"schedule"`
	CCT        int64        `json:"cct"`
	Reconfigs  int          `json:"reconfigs"`
	LowerBound int64        `json:"lowerBound"`
}

// renderSingle shapes a registry result for the single-coflow wire format.
func renderSingle(req algo.Request, res *algo.Result) SingleResponse {
	resp := SingleResponse{
		Schedule:   []Assignment{},
		CCT:        res.CCTs[0],
		Reconfigs:  res.Reconfigs,
		LowerBound: ocs.LowerBound(req.Demands[0], req.Delta),
	}
	// Circuit-schedule algorithms expose their establishments; pipeline
	// algorithms (reco-mul, lp-ii-gb, ...) report flow-level output only.
	if len(res.Schedules) == 1 {
		resp.Schedule = make([]Assignment, len(res.Schedules[0]))
		for i, a := range res.Schedules[0] {
			resp.Schedule[i] = Assignment{Perm: a.Perm, Dur: a.Dur}
		}
	}
	return resp
}

// MultiRequest asks for a schedule of a coflow batch.
type MultiRequest struct {
	Demands [][][]int64 `json:"demands"`
	Weights []float64   `json:"weights,omitempty"`
	Delta   int64       `json:"delta"`
	C       int64       `json:"c"`
	// Algorithm names a registered scheduler (GET /v1/algorithms lists
	// them); empty means Reco-Mul, the historical behavior of this
	// endpoint. The scheduler must support multi-coflow batches.
	Algorithm string `json:"algorithm,omitempty"`
	// DeadlineMS is the request's SLA in milliseconds; see
	// SingleRequest.DeadlineMS. Zero means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Weight is the request's admission weight; see SingleRequest.Weight.
	// It is distinct from Weights, which shapes the schedule itself.
	Weight float64 `json:"weight,omitempty"`
	// Knobs are the optional tuning fields; see SingleRequest.Knobs.
	algo.Knobs
}

// toAlgo validates the request into the registry shape.
func (r MultiRequest) toAlgo() (string, algo.Request, error) {
	if len(r.Demands) == 0 {
		return "", algo.Request{}, errors.New("no demand matrices")
	}
	ds := make([]*matrix.Matrix, len(r.Demands))
	for k, rows := range r.Demands {
		d, err := matrix.FromRows(rows)
		if err != nil {
			return "", algo.Request{}, fmt.Errorf("demand %d: %w", k, err)
		}
		ds[k] = d
	}
	name := r.Algorithm
	if name == "" {
		name = algo.NameRecoMul
	}
	return name, algo.Request{Demands: ds, Weights: r.Weights, Delta: r.Delta, C: r.C, Knobs: r.Knobs}, nil
}

// Flow mirrors schedule.FlowInterval for the wire.
type Flow struct {
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Gap    int64 `json:"gap,omitempty"`
	In     int   `json:"in"`
	Out    int   `json:"out"`
	Coflow int   `json:"coflow"`
}

// MultiResponse is the scheduled outcome of a batch.
type MultiResponse struct {
	Flows     []Flow  `json:"flows"`
	CCTs      []int64 `json:"ccts"`
	Reconfigs int     `json:"reconfigs"`
}

// renderMulti shapes a registry result for the batch wire format.
func renderMulti(res *algo.Result) MultiResponse {
	return MultiResponse{
		Flows:     flowsToWire(res.Flows),
		CCTs:      res.CCTs,
		Reconfigs: res.Reconfigs,
	}
}

// minCellBytes is the least JSON one demand cell occupies ("0,"). It sizes
// the bound on /v1/workload/generate: a workload of more than
// MaxBodyBytes/minCellBytes cells (n·n·numCoflows) could not be posted back
// to this server's schedule endpoints, and is refused before its matrices
// are allocated — without the bound a 40-byte request is an out-of-memory
// kill, which no recover catches.
const minCellBytes = 2

// WorkloadRequest asks for a synthetic workload.
type WorkloadRequest struct {
	N          int   `json:"n"`
	NumCoflows int   `json:"numCoflows"`
	Seed       int64 `json:"seed"`
	MinDemand  int64 `json:"minDemand,omitempty"`
}

// WorkloadResponse carries the generated demand matrices.
type WorkloadResponse struct {
	Demands [][][]int64 `json:"demands"`
}

// AlgorithmInfo describes one registered scheduler.
type AlgorithmInfo struct {
	Name         string            `json:"name"`
	Description  string            `json:"description"`
	Capabilities algo.Capabilities `json:"capabilities"`
}

// AlgorithmsResponse lists the scheduler registry in deterministic order.
type AlgorithmsResponse struct {
	Algorithms []AlgorithmInfo `json:"algorithms"`
}

// errorResponse is the JSON error envelope. RetryAfterMS, present on 429
// and 503 responses, is the server's estimate of when capacity frees up;
// cooperating clients wait that long before retrying.
type errorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// maxDeadlineMS is the largest deadline_ms that converts to a
// time.Duration without overflowing (about 292 years) — anything larger
// is a validation error rather than a silent wraparound.
const maxDeadlineMS = int64(math.MaxInt64) / int64(time.Millisecond)

// sla validates an SLA field pair and returns the context timeout it
// implies (zero when there is no deadline).
func sla(deadlineMS int64, weight float64) (time.Duration, error) {
	if deadlineMS < 0 {
		return 0, fmt.Errorf("deadline_ms must be non-negative, got %d", deadlineMS)
	}
	if deadlineMS > maxDeadlineMS {
		return 0, fmt.Errorf("deadline_ms must be at most %d, got %d", maxDeadlineMS, deadlineMS)
	}
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return 0, fmt.Errorf("weight must be finite and non-negative, got %v", weight)
	}
	return time.Duration(deadlineMS) * time.Millisecond, nil
}

// slaContext derives the request context the computation runs under: the
// caller's context bounded by the request's deadline, if any.
func slaContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// route is one row of a route table: a ServeMux pattern and its handler.
type route struct {
	pattern string
	h       http.HandlerFunc
}

// routes is the API's route table. A pattern with no method leaves the
// method check to its handler.
func (s *Server) routes() []route {
	return []route{
		{"/v1/healthz", handleHealthz},
		{"/v1/algorithms", handleAlgorithms},
		{"/v1/schedule/single", s.handleSingle},
		{"/v1/schedule/multi", s.handleMulti},
		{"/v1/workload/generate", s.handleWorkload},
		{"POST /v1/jobs", s.handleJobSubmit},
		{"GET /v1/jobs", s.handleJobList},
		{"GET /v1/jobs/{id}", s.handleJobGet},
		{"POST /v1/jobs/{id}/cancel", s.handleJobCancel},
	}
}

// opsRoutes are the process endpoints InstrumentedHandlerOn serves beside
// the API: liveness and the two exports of reg.
func opsRoutes(reg *obs.Registry) []route {
	return []route{
		{"/healthz", handleHealthz},
		{"/metrics", reg.PromHandler().ServeHTTP},
		{"/metrics.json", reg.JSONHandler().ServeHTTP},
	}
}

// Handler returns the API routes without metrics or process endpoints
// (InstrumentedHandlerOn assembles the whole service).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.pattern, rt.h)
	}
	return mux
}

// startTime anchors the health report's uptime.
var startTime = time.Now()

// handleHealthz is the liveness endpoint behind both /healthz and
// /v1/healthz: status, uptime and the Go version the binary was built with.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Uptime string `json:"uptime"`
		Go     string `json:"go"`
	}{"ok", time.Since(startTime).Round(time.Millisecond).String(), runtime.Version()})
}

func handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var resp AlgorithmsResponse
	for _, sched := range algo.All() {
		resp.Algorithms = append(resp.Algorithms, AlgorithmInfo{
			Name: sched.Name(), Description: sched.Describe(), Capabilities: sched.Caps(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSingle(w http.ResponseWriter, r *http.Request) {
	if d, res, ok := s.serve(w, r, decodeSingle); ok {
		out := getBuf(singleSize(res))
		*out = appendSingle(*out, d.req, res)
		writeRaw(w, *out)
		putBuf(out)
		recycle(d.req)
	}
}

func (s *Server) handleMulti(w http.ResponseWriter, r *http.Request) {
	if d, res, ok := s.serve(w, r, decodeMulti); ok {
		out := getBuf(multiSize(res))
		*out = appendMulti(*out, res)
		writeRaw(w, *out)
		putBuf(out)
		recycle(d.req)
	}
}

// recycle hands a request's demand matrices back to the matrix pool once
// nothing reads them, and may be called only after s.schedule returned nil
// for req. A nil error means the computation completed: no coalesced
// computation (plancache.Group.Do runs one detached from its callers, and
// it outlives a leader whose deadline or client gave up) can still read the
// leader's matrices, and no plan, cached or not, holds a reference to them.
// After a 504, a cancellation or any other error the matrices are left to
// the collector.
func recycle(req algo.Request) {
	for _, m := range req.Demands {
		m.Recycle()
	}
}

// serve is the synchronous endpoints' shared front half: read the body,
// decode it, and schedule the request under its SLA, writing the error
// response itself on failure. ok reports that s.schedule returned nil, so
// the caller may recycle d's matrices once it has written the response.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, decode func([]byte) (decoded, error)) (decoded, *algo.Result, bool) {
	body, ok := s.readBody(w, r)
	if !ok {
		return decoded{}, nil, false
	}
	d, err := decode(*body)
	putBuf(body) // d owns its matrices and strings
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return d, nil, false
	}
	timeout, err := sla(d.deadlineMS, d.weight)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return d, nil, false
	}
	ctx, cancel := slaContext(r.Context(), timeout)
	defer cancel()
	res, err := s.schedule(ctx, d.name, d.req)
	if err != nil {
		s.writeScheduleError(w, err)
		return d, nil, false
	}
	return d, res, true
}

// writeScheduleError maps a scheduling failure onto the wire, counting
// blown request deadlines separately so operators can see SLA pressure.
func (s *Server) writeScheduleError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusGatewayTimeout {
		obs.Current().Inc("api_deadline_exceeded_total")
	}
	writeError(w, status, err.Error())
}

func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	var req WorkloadRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	cells := s.opts.MaxBodyBytes / minCellBytes
	if n, k := int64(req.N), int64(req.NumCoflows); n > 0 && k > 0 && (n > cells/n || n*n > cells/k) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"workload too large: n*n*numCoflows must be at most %d, got n=%d numCoflows=%d", cells, n, k))
		return
	}
	coflows, err := workload.Generate(workload.GenConfig{
		N: req.N, NumCoflows: req.NumCoflows, Seed: req.Seed,
		MinDemand: req.MinDemand, MeanDemand: req.MinDemand,
	})
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	resp := WorkloadResponse{Demands: make([][][]int64, len(coflows))}
	for k, c := range coflows {
		n := c.Demand.N()
		rows := make([][]int64, n)
		for i := 0; i < n; i++ {
			rows[i] = make([]int64, n)
			for j := 0; j < n; j++ {
				rows[i][j] = c.Demand.At(i, j)
			}
		}
		resp.Demands[k] = rows
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxPooledBuf bounds both what a declared Content-Length may reserve
// before any byte has arrived and the buffers kept for reuse: a rare
// 64 MB body grows its buffer as it is read and then gives it back to the
// collector instead of pinning it in the pool.
const maxPooledBuf = 1 << 20

// bufPool recycles request-body and response buffers.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns an empty buffer with room for size bytes (capped at
// maxPooledBuf; append grows it past that).
func getBuf(size int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if size = min(size, maxPooledBuf); cap(*bp) < size {
		*bp = make([]byte, 0, size)
	}
	*bp = (*bp)[:0]
	return bp
}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// readBody reads a POST body whole into a pooled buffer the caller gives
// back with putBuf, writing the error response itself on failure. Bodies
// beyond the server's MaxBodyBytes get a structured 413 — before a byte is
// read when Content-Length already says so.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*[]byte, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return nil, false
	}
	limit := s.opts.MaxBodyBytes
	if r.ContentLength > limit {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit))
		return nil, false
	}
	// One spare byte lets the read that finds EOF fit without growing.
	bp := getBuf(int(max(r.ContentLength, 0)) + 1)
	b, src := *bp, http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := src.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*bp = b
			return bp, true
		}
		if err != nil {
			*bp = b
			putBuf(bp)
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			} else {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
			}
			return nil, false
		}
	}
}

// readJSON decodes a POST body into dst with the reference decoder,
// writing the error response itself on failure.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	body, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	defer putBuf(body)
	if err := decodeStrict(*body, dst); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

// statusFor maps library validation errors to 400, a blown request
// deadline to 504, and everything else to 500.
func statusFor(err error) int {
	if errors.Is(err, core.ErrBadParam) ||
		errors.Is(err, matrix.ErrDimension) ||
		errors.Is(err, matrix.ErrNegative) ||
		errors.Is(err, workload.ErrBadConfig) ||
		errors.Is(err, hybrid.ErrBadConfig) ||
		errors.Is(err, algo.ErrUnknown) ||
		errors.Is(err, algo.ErrBadRequest) {
		return http.StatusBadRequest
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures after the header is out can only be logged by the
	// caller's middleware; the payloads here are all marshalable types.
	_ = json.NewEncoder(w).Encode(v)
}

// writeRaw writes an already encoded 200 response.
func writeRaw(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeErrorRetry writes the error envelope with a retry hint, mirrored in
// a Retry-After header (whole seconds, rounded up) for generic clients.
func writeErrorRetry(w http.ResponseWriter, status int, msg string, retryMS int64) {
	if retryMS <= 0 {
		writeError(w, status, msg)
		return
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", (retryMS+999)/1000))
	writeJSON(w, status, errorResponse{Error: msg, RetryAfterMS: retryMS})
}

func flowsToWire(fs schedule.FlowSchedule) []Flow {
	out := make([]Flow, len(fs))
	for i, f := range fs {
		out[i] = Flow{Start: f.Start, End: f.End, Gap: f.Gap, In: f.In, Out: f.Out, Coflow: f.Coflow}
	}
	return out
}
