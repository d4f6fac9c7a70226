// Command recod runs the coflow-scheduling service: a JSON-over-HTTP API
// (see internal/api) that turns demand matrices into OCS circuit schedules.
//
//	recod -addr 127.0.0.1:8372
//
// Endpoints:
//
//	GET  /v1/healthz             liveness: status, uptime, Go version
//	GET  /v1/algorithms          the scheduler registry
//	POST /v1/schedule/single     {"demand": [[...]], "delta": 100}
//	POST /v1/schedule/multi      {"demands": [...], "weights": [...], "delta": 100, "c": 4}
//	POST /v1/workload/generate   {"n": 40, "numCoflows": 20, "seed": 1}
//	POST /v1/jobs                async job submit; 202 + job id
//	GET  /v1/jobs                list retained jobs
//	GET  /v1/jobs/{id}           poll one job (result once terminal)
//	POST /v1/jobs/{id}/cancel    cancel a queued or running job
//	GET  /healthz                the same report as /v1/healthz
//	GET  /metrics                Prometheus text format (HTTP + scheduler pipeline)
//	GET  /metrics.json           the same registry as expvar-style JSON
//
// The HTTP series are labelled by route (`POST /v1/schedule/single`,
// `GET /v1/jobs/{id}`); unknown paths and methods share the label "other".
//
// Scheduling responses are served through a plan cache keyed by the exact
// request, with request coalescing (tune with -cache-entries /
// -cache-bytes, or disable with -no-cache); request bodies are capped at
// -max-body bytes (413 beyond). Async jobs run on -job-workers goroutines
// in submission order; at the -job-queue bound admission control sheds a
// queued job or answers 429, and -job-retention caps the finished jobs
// kept for polling.
//
// With -pprof, net/http/pprof is mounted under /debug/pprof/ (off by
// default). The process shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests for up to the -drain timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reco/internal/api"
	"reco/internal/obs"
	"reco/internal/plancache"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("recod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8372", "listen address")
		drain     = fs.Duration("drain", 10*time.Second, "graceful shutdown timeout")
		withPprof = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		maxBody      = fs.Int64("max-body", api.DefaultMaxBodyBytes, "maximum request body in bytes (413 beyond)")
		noCache      = fs.Bool("no-cache", false, "disable the plan cache and request coalescing")
		cacheEntries = fs.Int("cache-entries", 0, "plan cache entry bound (0: default)")
		cacheBytes   = fs.Int64("cache-bytes", 0, "plan cache approximate byte bound (0: default)")
		jobWorkers   = fs.Int("job-workers", 0, "async job worker goroutines (0: RECO_WORKERS if set, else GOMAXPROCS)")
		jobQueue     = fs.Int("job-queue", 0, "async job queue bound; at it admission sheds or answers 429 (0: default)")
		jobRetention = fs.Int("job-retention", 0, "finished jobs retained for polling (0: default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger := log.New(stderr, "recod: ", log.LstdFlags)

	// One registry carries everything: HTTP metrics from the api collector
	// and — because the sink is attached process-wide — the scheduler
	// pipeline series (stage timings, BvN terms, matching and LP counters,
	// plan-cache and job series) emitted while requests are being
	// served.
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()

	opts := api.Options{
		MaxBodyBytes: *maxBody,
		NoCache:      *noCache,
		Cache:        plancache.Config{MaxEntries: *cacheEntries, MaxBytes: *cacheBytes},
		JobWorkers:   *jobWorkers,
		JobQueue:     *jobQueue,
		JobRetention: *jobRetention,
	}
	h, apiServer := handler(logger, reg, opts, *withPprof)
	defer apiServer.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on http://%s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			return 1
		}
	case sig := <-sigCh:
		logger.Printf("received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
			return 1
		}
	}
	return 0
}

// handler is recod's middleware chain around the assembled service
// (api.Server.InstrumentedHandlerOn): access logging outermost, so
// recovered panics are logged as 500s, then panic recovery, then — with
// -pprof — a mux adding /debug/pprof/. The returned api.Server owns the
// plan cache and job workers; the caller closes it after the HTTP server
// drains.
func handler(logger *log.Logger, reg *obs.Registry, opts api.Options, withPprof bool) (http.Handler, *api.Server) {
	apiServer := api.NewServer(opts)
	h, _ := apiServer.InstrumentedHandlerOn(reg)
	if withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		h = mux
	}
	return logRequests(logger, recoverPanics(logger, h)), apiServer
}

// recoverPanics converts a panicking handler into a structured JSON 500 and
// keeps the server alive instead of tearing down the connection. The
// response is best-effort: if the handler already wrote a partial body,
// nothing sensible can be appended. http.ErrAbortHandler is the net/http
// idiom for deliberately aborting a response and is re-raised untouched.
func recoverPanics(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			logger.Printf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"internal server error"}` + "\n"))
		}()
		next.ServeHTTP(w, r)
	})
}

// logRequests is minimal access logging middleware.
func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		logger.Printf("%s %s %d %s", r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status for the access log.
func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}
