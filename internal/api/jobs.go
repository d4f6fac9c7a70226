package api

import (
	"context"
	"fmt"
	"net/http"
	"slices"
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
	areq algo.Request // the zero Request once the job is terminal

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

// jobManager owns the job table, and the table is the job queue: pending
// holds the queued jobs oldest first, and `workers` goroutines take them
// from its front in submission order. The workers start on the first
// accepted submission, so a server that never sees a job starts none.
//
// The queue bound is len(pending), and admission enforces it. A job shed or
// cancelled while queued leaves pending at once and drops its demand.
type jobManager struct {
	workers, queue int
	retain         int
	run            func(context.Context, string, algo.Request) (*algo.Result, error)

	mu       sync.Mutex
	ready    sync.Cond // on mu: a job was queued or the manager closed
	jobs     map[string]*job
	order    []string // submission order, for listing and retention
	pending  []*job   // jobs in state JobQueued, oldest first
	seq      int64
	avgDurMS float64 // EWMA of finished-job wall time, for retry hints
	started  bool    // the workers are running
	closed   bool
	done     sync.WaitGroup // one per worker
}

// newJobManager returns a manager whose workers compute each job with run.
func newJobManager(workers, queue, retain int, run func(context.Context, string, algo.Request) (*algo.Result, error)) *jobManager {
	m := &jobManager{
		workers: parallel.Workers(workers),
		queue:   queue,
		retain:  retain,
		run:     run,
		jobs:    make(map[string]*job),
	}
	m.ready.L = &m.mu
	return m
}

// submitOutcome is the job admission verdict for one submission.
type submitOutcome int

const (
	submitAccepted submitOutcome = iota
	submitRejected               // admission turned the new job away: 429
	submitClosed                 // the manager is closed: 503
)

// close refuses further submissions, lets the workers run the jobs already
// queued, and waits for them to finish.
func (m *jobManager) close() {
	m.mu.Lock()
	m.closed = true
	m.ready.Broadcast()
	m.mu.Unlock()
	m.done.Wait()
}

// submit registers the job and queues it. While the queue has room every
// job is accepted; at the bound, admission control decides which of
// (queued ∪ incoming) survives — shedding queued work to admit heavier or
// tighter-deadline arrivals, or rejecting the incoming job with a retry
// hint.
func (m *jobManager) submit(j *job) (submitOutcome, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return submitClosed, 0
	}
	if len(m.pending) >= m.queue {
		victims, acceptNew := m.admitLocked(j)
		for _, v := range victims {
			m.unqueueLocked(v, JobShed, "shed by admission control under overload")
			obs.Current().Inc("jobs_shed_total")
		}
		if !acceptNew {
			obs.Current().Inc("jobs_rejected_total")
			return submitRejected, m.retryHintMSLocked()
		}
	}
	m.seq++
	j.id = fmt.Sprintf("j%08d", m.seq)
	j.state = JobQueued
	j.created = time.Now()
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.pending = append(m.pending, j)
	m.evictLocked()
	if !m.started {
		m.started = true
		m.done.Add(m.workers)
		for range m.workers {
			go m.work()
		}
	}
	m.ready.Signal()
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
	cands := make([]admission.Candidate, 0, len(m.pending)+1)
	for _, qj := range m.pending {
		cands = append(cands, qj.candidate(now))
	}
	cands = append(cands, incoming.candidate(now))

	keep := make([]bool, len(cands))
	d, err := admission.Admit(context.Background(), cands)
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
	for qi, qj := range m.pending {
		if !keep[qi] {
			victims = append(victims, qj)
		}
	}
	return victims, keep[len(cands)-1]
}

// unqueueLocked ends a queued job without running it: it leaves pending in
// the terminal state (JobShed or JobCancelled), its context ends, and its
// demand, which no computation has seen, goes back to the matrix pool.
func (m *jobManager) unqueueLocked(j *job, state, reason string) {
	if i := slices.Index(m.pending, j); i >= 0 {
		m.pending = slices.Delete(m.pending, i, i+1)
	}
	j.state = state
	j.finished = time.Now()
	j.err = reason
	j.cancel()
	recycle(j.areq)
	j.areq = algo.Request{}
	obs.Current().Inc(obs.L("jobs_finished_total", "state", state))
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
	rounds := (len(m.pending) + m.workers) / m.workers // ceil((queued+1)/workers)
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

// cancelJob cancels the job's context. A queued job leaves the queue and
// flips straight to cancelled; a running job transitions when the
// scheduler honors the context. Returns the post-cancel snapshot.
func (m *jobManager) cancelJob(id string) (JobInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	if j.state == JobQueued {
		m.unqueueLocked(j, JobCancelled, "")
	}
	j.cancel()
	obs.Current().Inc("jobs_cancelled_total")
	return j.infoLocked(), true
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

// work is one worker: it runs the oldest queued job until none is left and
// the manager is closed.
func (m *jobManager) work() {
	defer m.done.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for len(m.pending) == 0 && !m.closed {
			m.ready.Wait()
		}
		if len(m.pending) == 0 {
			return
		}
		j := m.pending[0]
		m.pending = slices.Delete(m.pending, 0, 1)
		j.state = JobRunning
		j.started = time.Now()
		m.mu.Unlock()
		res, err := m.run(j.ctx, j.name, j.areq)
		m.mu.Lock()
		m.finishLocked(j, res, err)
	}
}

// finishLocked records a run's outcome on its job.
func (m *jobManager) finishLocked(j *job, res *algo.Result, err error) {
	j.finished = time.Now()
	durMS := float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	if m.avgDurMS <= 0 {
		m.avgDurMS = durMS
	} else {
		m.avgDurMS = 0.8*m.avgDurMS + 0.2*durMS
	}
	obs.Current().GaugeAdd("jobs_pending", -1)
	switch {
	case j.ctx.Err() != nil:
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
	// cancellation or shedding ends it (Close lets queued jobs run).
	j.ctx, j.cancel = context.WithCancel(context.Background())
	outcome, hintMS := s.jobs.submit(j)
	switch outcome {
	case submitRejected:
		j.cancel()
		writeErrorRetry(w, http.StatusTooManyRequests,
			"job rejected by admission control: server over capacity", hintMS)
		return
	case submitClosed:
		j.cancel()
		writeError(w, http.StatusServiceUnavailable, "server is closing: no new jobs")
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
