package api

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"reco/internal/algo"
	"reco/internal/obs"
	"reco/internal/online/admission"
	"reco/internal/parallel"
)

// Job states. A job moves queued → running → one of the terminal states;
// cancellation can land in any non-terminal state and wins over the
// scheduler's own result. A queued job can also be shed: under overload
// the admission controller drops the lowest-weight, loosest-deadline
// queued work to make room (docs/ADMISSION.md).
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
	JobShed      = "shed"
)

// JobRequest submits one scheduling computation to the async API. Exactly
// one of Single / Multi must be set, matching Kind.
type JobRequest struct {
	// Kind selects the computation shape: "single" or "multi".
	Kind string `json:"kind"`
	// Single is the single-coflow request (Kind "single").
	Single *SingleRequest `json:"single,omitempty"`
	// Multi is the batch request (Kind "multi").
	Multi *MultiRequest `json:"multi,omitempty"`
}

// JobInfo is the wire representation of a job. Result fields are set only
// in terminal states; timestamps are RFC 3339 with nanoseconds.
type JobInfo struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Kind      string `json:"kind"`
	Algorithm string `json:"algorithm"`
	Created   string `json:"created"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	Error     string `json:"error,omitempty"`
	// DeadlineMS and Weight echo the submitted SLA. Missed is set on a
	// done job that finished after its deadline.
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
	Weight     float64         `json:"weight,omitempty"`
	Missed     bool            `json:"missed,omitempty"`
	Single     *SingleResponse `json:"single,omitempty"`
	Multi      *MultiResponse  `json:"multi,omitempty"`
}

// JobListResponse lists jobs in submission order.
type JobListResponse struct {
	Jobs []JobInfo `json:"jobs"`
}

// job is the manager-internal job record; every mutable field is guarded
// by the manager's mutex.
type job struct {
	id   string
	kind string
	name string       // algorithm
	areq algo.Request // the zero Request once exec is done with the job

	// SLA: weight defaults to 1; a zero deadline means none. inLoad and
	// outLoad are the summed per-port demands, precomputed at submission
	// so admission decisions under the mutex never touch the matrices.
	weight          float64
	deadlineMS      int64
	deadline        time.Time
	inLoad, outLoad []int64

	state             string
	created           time.Time
	started, finished time.Time
	err               string
	missed            bool
	single            *SingleResponse
	multi             *MultiResponse
	cancel            context.CancelFunc
	ctx               context.Context
}

// candidate converts the job into an admission candidate with its
// remaining deadline in ticks (1 tick = 1 µs, the repository convention).
func (j *job) candidate(now time.Time) admission.Candidate {
	dl := admission.NoDeadline
	if !j.deadline.IsZero() {
		dl = int64(j.deadline.Sub(now) / time.Microsecond)
		if dl < 0 {
			dl = 0
		}
	}
	return admission.Candidate{In: j.inLoad, Out: j.outLoad, Deadline: dl, Weight: j.weight}
}

// jobManager owns the job table and the bounded worker pool that executes
// jobs. The pool starts lazily on the first submission, so servers that
// never see a job never spawn its goroutines.
//
// The queue bound is logical: `queued` counts jobs in state JobQueued and
// is what admission enforces. The pool's physical channel is oversized
// because shed and cancelled jobs leave dead closures behind (exec sees
// the state change and returns); TrySubmit failing against the oversized
// channel is the last-resort 503 when corpses pile up faster than workers
// drain them.
type jobManager struct {
	workers, queue int
	retain         int

	poolOnce sync.Once
	pool     *parallel.Pool

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing and retention
	seq      int64
	queued   int     // jobs in state JobQueued
	avgDurMS float64 // EWMA of finished-job wall time, for retry hints
	closed   bool
}

func newJobManager(workers, queue, retain int) *jobManager {
	return &jobManager{
		workers: parallel.Workers(workers),
		queue:   queue,
		retain:  retain,
		jobs:    make(map[string]*job),
	}
}

// submitOutcome is the job admission verdict for one submission.
type submitOutcome int

const (
	submitAccepted submitOutcome = iota
	submitRejected               // admission turned the new job away: 429
	submitFull                   // pool saturated or manager closed: 503
)

func (m *jobManager) close() {
	m.mu.Lock()
	m.closed = true
	pool := m.pool
	m.mu.Unlock()
	if pool != nil {
		pool.Close()
	}
}

// submit registers the job and hands it to the pool. While the logical
// queue has room every job is accepted; at the bound, admission control
// decides which of (queued ∪ incoming) survives — shedding queued work to
// admit heavier or tighter-deadline arrivals, or rejecting the incoming
// job with a retry hint.
func (m *jobManager) submit(j *job, run func()) (submitOutcome, int64) {
	m.poolOnce.Do(func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if !m.closed {
			// Oversized physical channel: see the jobManager comment.
			m.pool = parallel.NewPool(m.workers, 4*m.queue+16)
		}
	})
	m.mu.Lock()
	if m.closed || m.pool == nil {
		m.mu.Unlock()
		return submitFull, 0
	}
	if m.queued >= m.queue {
		victims, acceptNew := m.admitLocked(j)
		for _, v := range victims {
			m.shedLocked(v)
		}
		if !acceptNew {
			hint := m.retryHintMSLocked()
			m.mu.Unlock()
			obs.Current().Inc("jobs_rejected_total")
			return submitRejected, hint
		}
	}
	m.seq++
	j.id = fmt.Sprintf("j%08d", m.seq)
	j.state = JobQueued
	j.created = time.Now()
	pool := m.pool
	m.mu.Unlock()

	if !pool.TrySubmit(run) {
		m.mu.Lock()
		hint := m.retryHintMSLocked()
		m.mu.Unlock()
		return submitFull, hint
	}
	m.mu.Lock()
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.queued++
	m.evictLocked()
	m.mu.Unlock()
	obs.Current().Inc("jobs_submitted_total")
	obs.Current().GaugeAdd("jobs_pending", 1)
	return submitAccepted, 0
}

// admitLocked runs admission over the queued set plus the incoming job.
// It returns the queued jobs to shed and whether the incoming job is
// admitted. The LP decides deadline feasibility; if its admitted set still
// exceeds the queue bound (e.g. every deadline is loose), the overflow is
// shed in admission.ShedOrder — lowest weight first, loosest deadline,
// newest last-in — which is the single shedding policy of the service.
func (m *jobManager) admitLocked(incoming *job) (victims []*job, acceptNew bool) {
	now := time.Now()
	var queued []*job
	for _, id := range m.order {
		if qj := m.jobs[id]; qj != nil && qj.state == JobQueued {
			queued = append(queued, qj)
		}
	}
	cands := make([]admission.Candidate, 0, len(queued)+1)
	for _, qj := range queued {
		cands = append(cands, qj.candidate(now))
	}
	cands = append(cands, incoming.candidate(now))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	keep := make([]bool, len(cands))
	d, err := admission.Admit(ctx, cands)
	if err == nil {
		for _, i := range d.Admitted {
			keep[i] = true
		}
	} else {
		// Admission itself failed (not an LP fallback — Admit degrades to
		// greedy internally): keep everything and let the count bound below
		// do the shedding.
		for i := range keep {
			keep[i] = true
		}
	}

	surviving := make([]int, 0, len(cands))
	for i := range cands {
		if keep[i] {
			surviving = append(surviving, i)
		}
	}
	if over := len(surviving) - m.queue; over > 0 {
		for _, i := range admission.ShedOrder(cands, surviving)[:over] {
			keep[i] = false
		}
	}
	for qi, qj := range queued {
		if !keep[qi] {
			victims = append(victims, qj)
		}
	}
	return victims, keep[len(cands)-1]
}

// shedLocked drops a queued job: terminal state JobShed, context
// cancelled so its dead pool closure returns immediately when dequeued.
func (m *jobManager) shedLocked(j *job) {
	if j.state != JobQueued {
		return
	}
	j.state = JobShed
	j.finished = time.Now()
	j.err = "shed by admission control under overload"
	m.queued--
	if j.cancel != nil {
		j.cancel()
	}
	obs.Current().Inc("jobs_shed_total")
	obs.Current().Inc(obs.L("jobs_finished_total", "state", JobShed))
	obs.Current().GaugeAdd("jobs_pending", -1)
}

// retryHintMSLocked estimates when queue capacity frees up: the average
// job duration times the number of drain rounds the backlog needs. No
// history yet means a conservative 100ms; the hint is clamped to [1ms,
// 30s].
func (m *jobManager) retryHintMSLocked() int64 {
	avg := m.avgDurMS
	if avg <= 0 {
		avg = 100
	}
	rounds := (m.queued + m.workers) / m.workers // ceil((queued+1)/workers)
	hint := int64(avg * float64(rounds))
	if hint < 1 {
		hint = 1
	}
	if hint > 30_000 {
		hint = 30_000
	}
	return hint
}

// evictLocked drops the oldest finished jobs beyond the retention cap.
// Queued and running jobs are never dropped.
func (m *jobManager) evictLocked() {
	finished := 0
	for _, id := range m.order {
		if j := m.jobs[id]; j != nil && terminal(j.state) {
			finished++
		}
	}
	if finished <= m.retain {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j != nil && terminal(j.state) && finished > m.retain {
			delete(m.jobs, id)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

func terminal(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCancelled || state == JobShed
}

// get returns the job's current wire snapshot.
func (m *jobManager) get(id string) (JobInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return j.infoLocked(), true
}

// list returns every retained job in submission order.
func (m *jobManager) list() []JobInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobInfo, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j.infoLocked())
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// cancelJob cancels the job's context. A queued job flips straight to
// cancelled (its worker closure observes that and returns); a running job
// transitions when the scheduler honors the context. Returns the post-
// cancel snapshot.
func (m *jobManager) cancelJob(id string) (JobInfo, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobInfo{}, false
	}
	if j.state == JobQueued {
		j.state = JobCancelled
		j.finished = time.Now()
		m.queued--
		obs.Current().GaugeAdd("jobs_pending", -1)
	}
	cancel := j.cancel
	info := j.infoLocked()
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	obs.Current().Inc("jobs_cancelled_total")
	return info, true
}

func (j *job) infoLocked() JobInfo {
	info := JobInfo{
		ID:         j.id,
		State:      j.state,
		Kind:       j.kind,
		Algorithm:  j.name,
		Created:    j.created.Format(time.RFC3339Nano),
		Error:      j.err,
		DeadlineMS: j.deadlineMS,
		Weight:     j.weight,
		Missed:     j.missed,
		Single:     j.single,
		Multi:      j.multi,
	}
	if !j.started.IsZero() {
		info.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		info.Finished = j.finished.Format(time.RFC3339Nano)
	}
	return info
}

// exec runs one job to a terminal state through the server's cached
// scheduling path.
func (s *Server) exec(j *job) {
	m := s.jobs
	m.mu.Lock()
	if j.state != JobQueued {
		// Cancelled or shed while queued: dead closure, nothing to run.
		j.areq = algo.Request{}
		m.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	m.queued--
	ctx := j.ctx
	m.mu.Unlock()

	res, err := s.schedule(ctx, j.name, j.areq)

	m.mu.Lock()
	defer m.mu.Unlock()
	j.finished = time.Now()
	durMS := float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	if m.avgDurMS <= 0 {
		m.avgDurMS = durMS
	} else {
		m.avgDurMS = 0.8*m.avgDurMS + 0.2*durMS
	}
	obs.Current().GaugeAdd("jobs_pending", -1)
	switch {
	case ctx.Err() != nil:
		j.state = JobCancelled
	case err != nil:
		j.state = JobFailed
		j.err = err.Error()
	default:
		j.state = JobDone
		if !j.deadline.IsZero() && j.finished.After(j.deadline) {
			j.missed = true
			obs.Current().Inc("jobs_deadline_missed_total")
		}
		switch j.kind {
		case "single":
			r := renderSingle(j.areq, res)
			j.single = &r
		default:
			r := renderMulti(res)
			j.multi = &r
		}
	}
	// The record outlives the run by up to JobRetention finished jobs; it
	// keeps the rendered response, never the demand.
	if err == nil {
		recycle(j.areq)
	}
	j.areq = algo.Request{}
	obs.Current().Inc(obs.L("jobs_finished_total", "state", j.state))
	m.evictLocked()
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	kind, d, err := decodeJob(*body)
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j := &job{kind: kind, name: d.name, areq: d.req, weight: d.weight, deadlineMS: d.deadlineMS}
	timeout, err := sla(d.deadlineMS, d.weight)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Validate the algorithm at submission time so a typo is a 400 now, not
	// a failed job later.
	if _, err := algo.Get(j.name); err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	if j.weight == 0 {
		j.weight = 1
	}
	if timeout > 0 {
		j.deadline = time.Now().Add(timeout)
	}
	j.inLoad, j.outLoad = demandLoads(j.areq)
	// The job's context outlives the submitting request by design; only
	// cancellation, shedding, or Close ends it.
	j.ctx, j.cancel = context.WithCancel(context.Background())
	outcome, hintMS := s.jobs.submit(j, func() { s.exec(j) })
	switch outcome {
	case submitRejected:
		j.cancel()
		writeErrorRetry(w, http.StatusTooManyRequests,
			"job rejected by admission control: server over capacity", hintMS)
		return
	case submitFull:
		j.cancel()
		writeErrorRetry(w, http.StatusServiceUnavailable, "job queue full", hintMS)
		return
	}
	info, _ := s.jobs.get(j.id)
	writeJSON(w, http.StatusAccepted, info)
}

// demandLoads sums per-port ingress/egress demand across the request's
// matrices (ticks of transmission), padding to the largest fabric when a
// batch mixes sizes.
func demandLoads(areq algo.Request) (in, out []int64) {
	for _, d := range areq.Demands {
		rs, cs := d.RowSums(), d.ColSums()
		if len(rs) > len(in) {
			in = append(in, make([]int64, len(rs)-len(in))...)
			out = append(out, make([]int64, len(cs)-len(out))...)
		}
		for p, v := range rs {
			in[p] += v
		}
		for p, v := range cs {
			out[p] += v
		}
	}
	return in, out
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.list()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	info, ok := s.jobs.cancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, info)
}
