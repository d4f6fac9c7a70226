package api

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"reco/internal/obs"
)

// Metrics collects per-endpoint request counts, error counts and latency
// histograms on an obs.Registry. The label set is the route table: a
// request is recorded under the pattern of the route that served it, with
// the request's method in front when the pattern names none
// (`POST /v1/schedule/single`, `GET /v1/jobs/{id}`). Every other request —
// an unmatched path, a non-standard method, the mux's own redirects and
// 405s — shares the label "other", so no client can grow the series.
// Labels are resolved when the routes are registered; a request costs a
// map lookup and atomic updates.
type Metrics struct {
	reg   *obs.Registry
	other slot
}

// slot is one label's series, created in the registry on the label's first
// request so an endpoint nobody called exports nothing.
type slot struct {
	label string
	e     atomic.Pointer[endpointMetrics]
}

type endpointMetrics struct {
	count   *obs.Counter
	errors  *obs.Counter
	latency *obs.Histogram
}

// standardMethods are the methods a route label may carry.
var standardMethods = []string{
	http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
	http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace,
}

func newMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.SetHelp("http_requests_total", "requests served, by endpoint")
	reg.SetHelp("http_request_errors_total", "responses with status >= 400, by endpoint")
	reg.SetHelp("http_request_seconds", "request latency, by endpoint")
	return &Metrics{reg: reg, other: slot{label: "other"}}
}

// route wraps the handler registered under pattern so that the middleware
// records its requests under the pattern's label.
func (m *Metrics) route(pattern string, h http.Handler) http.Handler {
	slots := make(map[string]*slot, len(standardMethods))
	if strings.Contains(pattern, " ") {
		s := &slot{label: pattern}
		for _, method := range standardMethods {
			slots[method] = s
		}
	} else {
		for _, method := range standardMethods {
			slots[method] = &slot{label: method + " " + pattern}
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rec, ok := w.(*metricsRecorder); ok {
			if s := slots[r.Method]; s != nil {
				rec.slot = s
			}
		}
		h.ServeHTTP(w, r)
	})
}

// middleware times every request next serves and records it under the
// label its route set, or "other" when no route did.
func (m *Metrics) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &metricsRecorder{ResponseWriter: w, status: http.StatusOK, slot: &m.other}
		next.ServeHTTP(rec, r)
		e := m.series(rec.slot)
		e.count.Inc()
		if rec.status >= 400 {
			e.errors.Inc()
		}
		e.latency.ObserveDuration(time.Since(start))
	})
}

func (m *Metrics) series(s *slot) *endpointMetrics {
	if e := s.e.Load(); e != nil {
		return e
	}
	// The registry returns an existing series, so a racing first request
	// builds an identical wrapper and either store is correct.
	e := &endpointMetrics{
		count:  m.reg.Counter(obs.L("http_requests_total", "endpoint", s.label)),
		errors: m.reg.Counter(obs.L("http_request_errors_total", "endpoint", s.label)),
		// Log-scale buckets: a cache-hit response is a few µs, a cold LP
		// solve can take seconds; fixed DefBuckets would fold the entire
		// fast path into one bucket and quantiles would be useless.
		latency: m.reg.Histogram(obs.L("http_request_seconds", "endpoint", s.label), obs.LogBuckets(1e-6, 2, 24)),
	}
	s.e.Store(e)
	return e
}

type metricsRecorder struct {
	http.ResponseWriter
	status int
	slot   *slot
}

// WriteHeader records the status code for error accounting.
func (r *metricsRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// InstrumentedHandlerOn returns the assembled service: the API routes
// behind the metrics middleware publishing into reg (nil: a private
// registry), beside the process endpoints /healthz, /metrics and
// /metrics.json, which are not recorded. It also returns the collector.
func (s *Server) InstrumentedHandlerOn(reg *obs.Registry) (http.Handler, *Metrics) {
	m := newMetrics(reg)
	apiMux := http.NewServeMux()
	for _, rt := range s.routes() {
		apiMux.Handle(rt.pattern, m.route(rt.pattern, rt.h))
	}
	mux := http.NewServeMux()
	mux.Handle("/", m.middleware(apiMux))
	for _, rt := range opsRoutes(m.reg) {
		mux.Handle(rt.pattern, rt.h)
	}
	return mux, m
}
