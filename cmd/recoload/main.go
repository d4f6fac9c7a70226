// Command recoload is a seeded closed-loop load generator for the recod
// scheduling service. Every worker drives one request at a time (closed
// loop), drawing demand matrices from a pre-generated seeded pool; the
// -reuse ratio controls how often a request repeats a matrix the service
// has already seen, which is what exercises the plan cache.
//
//	recoload -server http://127.0.0.1:8372 -concurrency 8 -duration 10s -reuse 0.9
//	recoload -inprocess -duration 2s -mix single=0.8,multi=0.2
//	recoload -inprocess -duration 2s -mix job=1 -deadline 200ms -weighted \
//	    -job-workers 1 -job-queue 2
//
// With -deadline every request carries a per-request SLA drawn uniformly
// from [0.5, 1.5) x the base duration, and -weighted assigns power-of-two
// admission weights, which together exercise the server's deadline-aware
// admission control. Admission outcomes are classified, not failed: a 429
// rejection, a shed job, or a missed deadline counts in the report's
// rejected/shed/missed tallies and leaves the exit status zero — only
// transport or server errors fail the run.
//
// With -inprocess, recoload starts an in-process recod-equivalent server
// (the same assembled handler, plan cache and /metrics.json registry) and
// drives it over a real HTTP loopback listener, so the harness works in CI
// without a daemon.
//
// The run report — latency quantiles and throughput per request kind, plus
// the server's plan-cache counters scraped from /metrics.json — is written
// to stdout as JSON, and with -out to a file as well. recoload drives a
// server; the numbers a performance claim rests on come from bench/ (see
// docs/PERF.md "Measuring").
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reco/internal/api"
	"reco/internal/obs"
	"reco/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config carries the parsed flag set; it is echoed into the report so a
// result file is self-describing.
type config struct {
	Server      string        `json:"server,omitempty"`
	InProcess   bool          `json:"inprocess"`
	NoCache     bool          `json:"nocache,omitempty"`
	Concurrency int           `json:"concurrency"`
	Duration    time.Duration `json:"-"`
	DurationStr string        `json:"duration"`
	Seed        int64         `json:"seed"`
	Reuse       float64       `json:"reuse"`
	Mix         string        `json:"mix"`
	Alg         string        `json:"alg,omitempty"`
	N           int           `json:"n"`
	Coflows     int           `json:"coflows"`
	Delta       int64         `json:"delta"`
	C           int64         `json:"c"`
	Deadline    time.Duration `json:"-"`
	DeadlineStr string        `json:"deadline,omitempty"`
	Weighted    bool          `json:"weighted,omitempty"`
	JobWorkers  int           `json:"job_workers,omitempty"`
	JobQueue    int           `json:"job_queue,omitempty"`
}

// opStats summarizes one request kind's latency samples. Count covers
// completed requests (including deadline misses); rejected and shed
// requests are admission outcomes, tallied separately and excluded from
// the latency quantiles.
type opStats struct {
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	Rejected   int64   `json:"rejected,omitempty"`
	Shed       int64   `json:"shed,omitempty"`
	Missed     int64   `json:"missed,omitempty"`
	MeanNs     float64 `json:"mean_ns"`
	P50Ns      float64 `json:"p50_ns"`
	P95Ns      float64 `json:"p95_ns"`
	P99Ns      float64 `json:"p99_ns"`
	MaxNs      float64 `json:"max_ns"`
	Throughput float64 `json:"throughput_rps"`
}

// report is the run's JSON output. MissRate is missed / completed across
// all kinds (0 when nothing carried a deadline or nothing completed).
type report struct {
	Config          config  `json:"config"`
	DurationSeconds float64 `json:"duration_seconds"`
	TotalRequests   int64   `json:"total_requests"`
	TotalErrors     int64   `json:"total_errors"`
	TotalRejected   int64   `json:"total_rejected,omitempty"`
	TotalShed       int64   `json:"total_shed,omitempty"`
	TotalMissed     int64   `json:"total_missed,omitempty"`
	MissRate        float64 `json:"miss_rate,omitempty"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	// AllocsPerOp is the process-wide heap allocation count (runtime
	// MemStats.Mallocs delta across the drive loop) divided by completed
	// requests, blended over every kind in the mix. With -inprocess it
	// includes the server's allocations — the figure that matters for the
	// serving path's steady-state GC pressure.
	AllocsPerOp int64              `json:"allocs_per_op"`
	Ops         map[string]opStats `json:"ops"`
	Metrics     map[string]any     `json:"metrics,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recoload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.Server, "server", "", "recod base URL (mutually exclusive with -inprocess)")
	fs.BoolVar(&cfg.InProcess, "inprocess", false, "start an in-process server and drive it over loopback")
	fs.BoolVar(&cfg.NoCache, "no-cache", false, "inprocess: disable the plan cache (cold baseline)")
	fs.IntVar(&cfg.Concurrency, "concurrency", 8, "closed-loop workers")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "run length")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed for the matrix pool and request stream")
	fs.Float64Var(&cfg.Reuse, "reuse", 0.9, "probability a request reuses a pool matrix (cache-hittable)")
	fs.StringVar(&cfg.Mix, "mix", "single=1", `request mix, e.g. "single=0.8,multi=0.2"`)
	fs.StringVar(&cfg.Alg, "alg", "", "algorithm name (empty: the endpoint default)")
	fs.IntVar(&cfg.N, "n", 12, "fabric ports for generated matrices")
	fs.IntVar(&cfg.Coflows, "coflows", 16, "matrix pool size")
	fs.Int64Var(&cfg.Delta, "delta", 100, "reconfiguration delay in ticks")
	fs.Int64Var(&cfg.C, "c", 4, "optical transmission threshold (multi)")
	fs.DurationVar(&cfg.Deadline, "deadline", 0, "base per-request SLA; each request draws [0.5,1.5)x this (0: none)")
	fs.BoolVar(&cfg.Weighted, "weighted", false, "assign seeded power-of-two admission weights to requests")
	fs.IntVar(&cfg.JobWorkers, "job-workers", 0, "inprocess: async job workers (0: server default)")
	fs.IntVar(&cfg.JobQueue, "job-queue", 0, "inprocess: queued-job bound before admission control kicks in (0: server default)")
	outPath := fs.String("out", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.DurationStr = cfg.Duration.String()
	if cfg.Deadline > 0 {
		cfg.DeadlineStr = cfg.Deadline.String()
	}

	mix, err := parseMix(cfg.Mix)
	if err != nil {
		fmt.Fprintf(stderr, "recoload: %v\n", err)
		return 2
	}
	if (cfg.Server == "") == !cfg.InProcess {
		fmt.Fprintln(stderr, "recoload: need exactly one of -server or -inprocess")
		return 2
	}
	if cfg.Concurrency < 1 || cfg.Duration <= 0 || cfg.Reuse < 0 || cfg.Reuse > 1 {
		fmt.Fprintln(stderr, "recoload: need -concurrency >= 1, -duration > 0, -reuse in [0,1]")
		return 2
	}

	base := cfg.Server
	if cfg.InProcess {
		srv, err := startInProcess(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "recoload: starting in-process server: %v\n", err)
			return 1
		}
		defer srv.stop()
		base = srv.url
	}

	pool, err := buildPool(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "recoload: generating matrix pool: %v\n", err)
		return 1
	}

	rep, err := drive(base, cfg, mix, pool)
	if err != nil {
		fmt.Fprintf(stderr, "recoload: %v\n", err)
		return 1
	}
	rep.Metrics = scrapeMetrics(base, scrapeTimeout)

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "recoload: encoding report: %v\n", err)
		return 1
	}
	if *outPath != "" {
		if err := writeFileJSON(*outPath, rep); err != nil {
			fmt.Fprintf(stderr, "recoload: %v\n", err)
			return 1
		}
	}
	if rep.TotalRequests == 0 {
		fmt.Fprintln(stderr, "recoload: no requests completed")
		return 1
	}
	if rep.TotalErrors > 0 {
		fmt.Fprintf(stderr, "recoload: %d request(s) failed\n", rep.TotalErrors)
		return 1
	}
	return 0
}

// parseMix parses "single=0.8,multi=0.2" into normalized weights.
func parseMix(s string) (map[string]float64, error) {
	mix := make(map[string]float64)
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix %q: want kind=weight pairs", s)
		}
		if k != "single" && k != "multi" && k != "job" {
			return nil, fmt.Errorf("mix %q: unknown kind %q", s, k)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix %q: bad weight %q", s, v)
		}
		mix[k] += w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix %q: weights sum to zero", s)
	}
	for k := range mix {
		mix[k] /= total
	}
	return mix, nil
}

// buildPool pre-generates the seeded demand-matrix pool requests draw from.
func buildPool(cfg config) ([][][]int64, error) {
	cfs, err := workload.Generate(workload.GenConfig{
		N: cfg.N, NumCoflows: cfg.Coflows, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	pool := make([][][]int64, len(cfs))
	for i, cf := range cfs {
		n := cf.Demand.N()
		rows := make([][]int64, n)
		for r := 0; r < n; r++ {
			row := make([]int64, n)
			for c := 0; c < n; c++ {
				row[c] = cf.Demand.At(r, c)
			}
			rows[r] = row
		}
		pool[i] = rows
	}
	return pool, nil
}

// uniqueSalt feeds never-repeating demand perturbations, so a "fresh"
// request is guaranteed to miss the cache.
var uniqueSalt atomic.Int64

// perturb clones rows with one cell bumped by a unique amount, preserving
// validity (non-negative, same shape) while changing the fingerprint.
func perturb(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	for i, row := range rows {
		out[i] = append([]int64(nil), row...)
	}
	salt := uniqueSalt.Add(1)
	n := int64(len(out))
	i := salt % n
	j := (salt/n + 1) % n
	out[i][j] += salt
	return out
}

// Request outcomes. ok and missed are completed work; rejected and shed
// are admission decisions; failed is a transport or server error (the
// only outcome that fails the run).
const (
	outcomeOK       = "ok"
	outcomeMissed   = "missed"
	outcomeRejected = "rejected"
	outcomeShed     = "shed"
	outcomeFailed   = "failed"
)

// sample is one request's outcome.
type sample struct {
	kind    string
	ns      int64
	outcome string
}

// classify maps a request result onto an outcome. A structured 429 is an
// admission rejection and a 504 is a missed SLA — both expected under
// deliberate overload, neither a harness failure.
func classify(err error) string {
	if err == nil {
		return outcomeOK
	}
	var apiErr *api.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests:
			return outcomeRejected
		case http.StatusGatewayTimeout:
			return outcomeMissed
		}
	}
	return outcomeFailed
}

// drive runs the closed loop and aggregates the report.
func drive(base string, cfg config, mix map[string]float64, pool [][][]int64) (*report, error) {
	client := api.NewClient(base, &http.Client{Timeout: 5 * time.Minute})
	if err := client.Healthz(context.Background()); err != nil {
		return nil, fmt.Errorf("server not healthy: %w", err)
	}
	pSingle := mix["single"]
	pMulti := mix["multi"]

	results := make([][]sample, cfg.Concurrency)
	var wg sync.WaitGroup
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct deterministic stream per worker; large stride keeps
			// the streams from overlapping in practice.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			var out []sample
			for time.Now().Before(deadline) {
				kind := "job"
				switch p := rng.Float64(); {
				case p < pSingle:
					kind = "single"
				case p < pSingle+pMulti:
					kind = "multi"
				}
				pick := func() [][]int64 {
					rows := pool[rng.Intn(len(pool))]
					if rng.Float64() >= cfg.Reuse {
						rows = perturb(rows)
					}
					return rows
				}
				var deadlineMS int64
				if cfg.Deadline > 0 {
					deadlineMS = int64(float64(cfg.Deadline.Milliseconds()) * (0.5 + rng.Float64()))
					if deadlineMS < 1 {
						deadlineMS = 1
					}
				}
				var weight float64
				if cfg.Weighted {
					weight = float64(int64(1) << rng.Intn(4))
				}
				t0 := time.Now()
				var outcome string
				switch kind {
				case "single":
					_, err := client.ScheduleSingle(context.Background(), api.SingleRequest{
						Demand: pick(), Delta: cfg.Delta, Algorithm: cfg.Alg,
						DeadlineMS: deadlineMS, Weight: weight,
					})
					outcome = classify(err)
				case "multi":
					_, err := client.ScheduleMulti(context.Background(), api.MultiRequest{
						Demands: [][][]int64{pick(), pick()}, Delta: cfg.Delta, C: cfg.C,
						Algorithm: cfg.Alg, DeadlineMS: deadlineMS, Weight: weight,
					})
					outcome = classify(err)
				default:
					outcome = driveJob(client, cfg, pick(), deadlineMS, weight)
				}
				out = append(out, sample{kind: kind, ns: time.Since(t0).Nanoseconds(), outcome: outcome})
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	mallocs := memAfter.Mallocs - memBefore.Mallocs

	byKind := make(map[string][]int64)
	counts := make(map[string]map[string]int64)
	for _, rs := range results {
		for _, s := range rs {
			if counts[s.kind] == nil {
				counts[s.kind] = make(map[string]int64)
			}
			counts[s.kind][s.outcome]++
			if s.outcome == outcomeOK || s.outcome == outcomeMissed {
				byKind[s.kind] = append(byKind[s.kind], s.ns)
			}
		}
	}
	rep := &report{
		Config:          cfg,
		DurationSeconds: elapsed.Seconds(),
		Ops:             make(map[string]opStats),
	}
	for kind, c := range counts {
		st := summarize(byKind[kind], elapsed)
		st.Errors = c[outcomeFailed]
		st.Rejected = c[outcomeRejected]
		st.Shed = c[outcomeShed]
		st.Missed = c[outcomeMissed]
		rep.Ops[kind] = st
		rep.TotalRequests += st.Count
		rep.TotalErrors += st.Errors
		rep.TotalRejected += st.Rejected
		rep.TotalShed += st.Shed
		rep.TotalMissed += st.Missed
	}
	if rep.TotalRequests > 0 {
		rep.MissRate = float64(rep.TotalMissed) / float64(rep.TotalRequests)
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.TotalRequests) / elapsed.Seconds()
	}
	if rep.TotalRequests > 0 {
		rep.AllocsPerOp = int64(mallocs) / rep.TotalRequests
	}
	return rep, nil
}

// driveJob submits one async job and waits it to a terminal state,
// translating the job lifecycle into an outcome: a 429 on submit is
// rejected, a shed job is shed, a done job that blew its SLA is missed.
func driveJob(client *api.Client, cfg config, demand [][]int64, deadlineMS int64, weight float64) string {
	info, err := client.SubmitJob(context.Background(), api.JobRequest{
		Kind: "single",
		Single: &api.SingleRequest{
			Demand: demand, Delta: cfg.Delta, Algorithm: cfg.Alg,
			DeadlineMS: deadlineMS, Weight: weight,
		},
	})
	if err != nil {
		return classify(err)
	}
	final, err := client.WaitJob(context.Background(), info.ID, 2*time.Millisecond)
	if err != nil {
		return classify(err)
	}
	switch final.State {
	case api.JobShed:
		return outcomeShed
	case api.JobDone:
		if final.Missed {
			return outcomeMissed
		}
		return outcomeOK
	default: // failed, cancelled: not this harness's doing
		return outcomeFailed
	}
}

// summarize computes exact (sample-sorted, not histogram-bucketed)
// latency quantiles.
func summarize(ns []int64, elapsed time.Duration) opStats {
	sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
	st := opStats{Count: int64(len(ns))}
	if len(ns) == 0 {
		return st
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(ns)-1))
		return float64(ns[i])
	}
	st.MeanNs = float64(sum) / float64(len(ns))
	st.P50Ns = q(0.50)
	st.P95Ns = q(0.95)
	st.P99Ns = q(0.99)
	st.MaxNs = float64(ns[len(ns)-1])
	if elapsed > 0 {
		st.Throughput = float64(len(ns)) / elapsed.Seconds()
	}
	return st
}

func writeFileJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// scrapeTimeout bounds the /metrics.json scrape that closes a run.
const scrapeTimeout = 10 * time.Second

// scrapeMetrics pulls /metrics.json and keeps the serving-stack series
// (plan cache, coalescing, jobs, pool) for the report. Best-effort: an
// external server without the endpoint, or one that does not answer within
// timeout, just yields no metrics.
func scrapeMetrics(base string, timeout time.Duration) map[string]any {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(strings.TrimRight(base, "/") + "/metrics.json")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var all map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil
	}
	out := make(map[string]any)
	for k, v := range all {
		for _, prefix := range []string{"plancache_", "jobs_", "pool_", "admission_"} {
			if strings.HasPrefix(k, prefix) {
				out[k] = v
				break
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// inProcessServer is the -inprocess recod stand-in: the assembled service
// (api.Server.InstrumentedHandlerOn) on a loopback listener.
type inProcessServer struct {
	url  string
	stop func()
}

func startInProcess(cfg config) (*inProcessServer, error) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})

	apiServer := api.NewServer(api.Options{
		NoCache:    cfg.NoCache,
		JobWorkers: cfg.JobWorkers,
		JobQueue:   cfg.JobQueue,
	})
	h, _ := apiServer.InstrumentedHandlerOn(reg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		obs.Detach()
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return &inProcessServer{
		url: "http://" + ln.Addr().String(),
		stop: func() {
			_ = srv.Close()
			apiServer.Close()
			obs.Detach()
		},
	}, nil
}
