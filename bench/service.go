package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"reco/internal/api"
	"reco/internal/obs"
)

const (
	// clients is the closed loop's width: recod's caller is a controller
	// that waits for the schedule before it configures the switch, and the
	// box this benchmark is calibrated on has two cores.
	clients = 2
	// warmupRequests precede every timed run, untimed.
	warmupRequests = 32
	// setupReps is how many times a run sets up from scratch; setup_s is
	// their median and the last one serves the timed run.
	setupReps = 3
	// window is the slice of a timed run a timing is first taken over. The
	// timing metrics are medians over the run's windows, so a burst of
	// interference from another tenant of the machine spoils the windows it
	// hits and not the reading.
	window = 2 * time.Second
	// qualityPrefix is how many timed requests cct_over_lb and
	// reconfigs_per_coflow are taken over. It is a fixed prefix of the
	// stream, not everything a run got through, so the two repeat exactly
	// however fast the machine is.
	qualityPrefix = 1024
)

// service is an in-process recod: the registry, sink, server options and
// handler chain cmd/recod builds, on a loop-back listener.
type service struct {
	reg     *obs.Registry
	api     *api.Server
	handler http.Handler
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
}

func startService() (*service, error) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	as := api.NewServer(api.Options{})
	h, _ := as.InstrumentedHandlerOn(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		as.Close()
		obs.Detach()
		return nil, fmt.Errorf("listening on loop-back: %w", err)
	}
	s := &service{
		reg:     reg,
		api:     as,
		handler: h,
		srv:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan struct{}),
		base:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // always ErrServerClosed, from stop
	}()
	return s, nil
}

// stop shuts the server down and returns once its goroutines have ended.
func (s *service) stop() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.served
	s.api.Close()
	obs.Detach()
}

// post sends one request over the keep-alive connection pool and returns
// the status and the whole body.
func (s *service) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// sample is one completed request of a drive.
type sample struct {
	idx     int64
	latency time.Duration
	done    time.Duration // since the drive began
	outcome outcome
	err     error
}

// driven is what one closed-loop drive did and what it cost the process.
type driven struct {
	samples []sample // ordered by request index
	elapsed time.Duration
	usage   usage
}

// drive runs the closed loop: each client takes the next request index off
// one counter, builds the request, stamps the clock around the call and
// checks the response after the stamp. It hands out indices from first on,
// and stops handing them out after count requests (count > 0) or once d has
// passed (d > 0); requests in flight complete.
func (s *service) drive(st *stream, first, count int64, d time.Duration) *driven {
	var next atomic.Int64
	next.Store(first)
	perClient := make([][]sample, clients)
	before := readUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if d > 0 && time.Since(start) >= d {
					return
				}
				i := next.Add(1) - 1
				if count > 0 && i >= first+count {
					return
				}
				sm := s.one(st, i)
				sm.done = time.Since(start)
				perClient[c] = append(perClient[c], sm)
			}
		}()
	}
	wg.Wait()
	out := &driven{elapsed: time.Since(start), usage: readUsage().since(before)}
	for _, ss := range perClient {
		out.samples = append(out.samples, ss...)
	}
	slices.SortFunc(out.samples, func(a, b sample) int { return int(a.idx - b.idx) })
	return out
}

// one performs request i. A transport error, a status other than 200 and a
// failed output check all fail the request.
func (s *service) one(st *stream, i int64) sample {
	sm := sample{idx: i}
	req := st.at(i)
	t0 := time.Now()
	status, body, err := s.post(st.path, req.body)
	sm.latency = time.Since(t0)
	switch {
	case err != nil:
		sm.err = fmt.Errorf("request %d: %w", i, err)
	case status != http.StatusOK:
		sm.err = fmt.Errorf("request %d: status %d: %.200s", i, status, body)
	default:
		if sm.outcome, err = st.check(req, body); err != nil {
			sm.err = fmt.Errorf("request %d: %w", i, err)
		}
	}
	return sm
}

// setUp brings a workload to the state its timed run starts from: a fresh
// pool, a fresh server (so no plan-cache state leaks between workloads), the
// cache primed when the workload is the all-hits one, and the warm-up
// requests done. It returns the index the timed run continues from.
func setUp(sp spec, seed int64) (*stream, *service, int64, error) {
	st, err := newStream(sp, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	svc, err := startService()
	if err != nil {
		return nil, nil, 0, err
	}
	next := int64(0)
	if !sp.distinct {
		// One pass over the pool puts every plan in the cache.
		prime := svc.drive(st, next, int64(len(st.slots)), 0)
		next += int64(len(prime.samples))
		if err := firstError(prime.samples); err != nil {
			svc.stop()
			return nil, nil, 0, fmt.Errorf("%s: priming: %w", sp.name, err)
		}
	}
	warm := svc.drive(st, next, warmupRequests, 0)
	next += int64(len(warm.samples))
	if err := firstError(warm.samples); err != nil {
		svc.stop()
		return nil, nil, 0, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	return st, svc, next, nil
}

func firstError(ss []sample) error {
	for _, s := range ss {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// runService is the untraced run of a service workload: set up setupReps
// times, then drive the last set-up for the measuring time.
func runService(sp spec, seed int64, d time.Duration) (*result, error) {
	var (
		st     *stream
		svc    *service
		next   int64
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if svc != nil {
			svc.stop()
		}
		t0 := time.Now()
		var err error
		if st, svc, next, err = setUp(sp, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.stop()
	res := &result{Workload: sp.name, SetupReps: setupReps}
	res.add("setup_s", median(setups))
	res.addDrive(sp, svc.drive(st, next, 0, d))
	return res, nil
}

// addDrive turns a timed drive into the end-to-end readings.
func (r *result) addDrive(sp spec, dr *driven) {
	for _, s := range dr.samples {
		r.count(s.err)
	}
	var q outcome
	for _, s := range dr.samples[:min(qualityPrefix, len(dr.samples))] {
		q.ratioSum += s.outcome.ratioSum
		q.coflows += s.outcome.coflows
		q.reconfigs += s.outcome.reconfigs
	}
	if q.coflows > 0 {
		r.add("cct_over_lb", q.ratioSum/float64(q.coflows))
		r.add("reconfigs_per_coflow", float64(q.reconfigs)/float64(q.coflows))
	}
	n := float64(len(dr.samples))
	r.add("allocs_per_req", float64(dr.usage.mallocs)/n)
	r.add("bytes_per_req", float64(dr.usage.bytes)/n)

	// A run shorter than a window (the tests') is one window.
	width, count := window, int(dr.elapsed/window)
	if count == 0 {
		width, count = dr.elapsed, 1
	}
	windows := make([][]time.Duration, count)
	for _, s := range dr.samples {
		if w := int(s.done / width); w < count {
			windows[w] = append(windows[w], s.latency)
		}
	}
	var rates, p50s, p99s []float64
	for _, lat := range windows {
		rates = append(rates, float64(len(lat))/width.Seconds())
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		p50s = append(p50s, ms(quantile(lat, 0.50)))
		p99s = append(p99s, ms(quantile(lat, 0.99)))
		r.Samples += len(lat)
		r.BeyondP99 += len(lat) - 1 - rank(len(lat), 0.99)
	}
	r.Windows = count
	r.Elapsed = dr.elapsed.Seconds()
	rate := median(rates)
	r.add("throughput_rps", rate)
	r.add("latency_p50_ms", median(p50s))
	r.add("latency_p99_ms", median(p99s))
	r.add("wall_s", float64(sp.refRequests)/rate)
}

// usage is what the process consumed: heap counters from MemStats and CPU
// time from getrusage. The counters are process-wide, so a per-request
// figure carries the load generator's constant share.
type usage struct {
	mallocs, bytes uint64
	gcPause        time.Duration
	gcCycles       uint32
	cpu            time.Duration
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u := usage{
		mallocs:  m.Mallocs,
		bytes:    m.TotalAlloc,
		gcPause:  time.Duration(m.PauseTotalNs),
		gcCycles: m.NumGC,
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	} else {
		fmt.Fprintln(os.Stderr, "bench: getrusage:", err)
	}
	return u
}

// since returns the consumption between before and u.
func (u usage) since(before usage) usage {
	return usage{
		mallocs:  u.mallocs - before.mallocs,
		bytes:    u.bytes - before.bytes,
		gcPause:  u.gcPause - before.gcPause,
		gcCycles: u.gcCycles - before.gcCycles,
		cpu:      u.cpu - before.cpu,
	}
}

// addProc records the process-level per-layer readings of a drive or pass
// that took elapsed.
func (r *result) addProc(u usage, elapsed time.Duration) {
	r.add("proc.cpu_util", u.cpu.Seconds()/(elapsed.Seconds()*float64(runtime.NumCPU())))
	r.add("proc.gc_pause_ms", ms(u.gcPause))
	r.add("proc.gc_cycles", float64(u.gcCycles))
}

var errNoSamples = errors.New("the run completed no request")
