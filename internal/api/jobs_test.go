package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reco/internal/algo"
	"reco/internal/obs"
)

// blockSched is a registry scheduler tests steer: when gate is non-nil,
// Schedule blocks until the gate closes or the context ends. It then hands
// the request to the registry entry then names, or with none returns a
// trivial deterministic result, so the registry-wide tests that sweep
// algo.All() can run it safely (they skip "test-" names anyway).
type blockSched struct {
	name, then string

	mu      sync.Mutex
	gate    chan struct{}
	started chan struct{} // receives one token per Schedule call underway; a call whose context ends first sends none
}

var (
	testBlock    = &blockSched{name: "test-block"}
	testBlockSin = &blockSched{name: "test-block-sin", then: algo.NameRecoSin}
)

var registerTestBlock sync.Once

func ensureTestBlock() {
	registerTestBlock.Do(func() {
		algo.Register(testBlock)
		algo.Register(testBlockSin)
	})
}

func (b *blockSched) Name() string     { return b.name }
func (b *blockSched) Describe() string { return "test scheduler that blocks on demand" }
func (b *blockSched) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true, MultiCoflow: true}
}

// arm installs a fresh gate and returns (release, started).
func (b *blockSched) arm() (func(), chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gate = make(chan struct{})
	b.started = make(chan struct{}, 16)
	gate := b.gate
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }, b.started
}

func (b *blockSched) disarm() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gate, b.started = nil, nil
}

func (b *blockSched) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	b.mu.Lock()
	gate, started := b.gate, b.started
	b.mu.Unlock()
	if started != nil {
		select {
		case started <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if b.then != "" {
		return algo.MustGet(b.then).Schedule(ctx, req)
	}
	return &algo.Result{CCTs: make([]int64, len(req.Demands)), Reconfigs: len(req.Demands)}, nil
}

func newJobTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	ensureTestBlock()
	s := NewServer(opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, NewClient(srv.URL, srv.Client())
}

var jobDemand = [][]int64{
	{104, 109, 102},
	{103, 105, 107},
	{108, 101, 106},
}

func TestJobLifecycleSingle(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()
	info, err := client.SubmitJob(ctx, JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100},
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if info.ID == "" || (info.State != JobQueued && info.State != JobRunning && info.State != JobDone) {
		t.Fatalf("submit info: %+v", info)
	}
	if info.Algorithm != algo.NameRecoSin {
		t.Errorf("algorithm defaulted to %q, want reco-sin", info.Algorithm)
	}
	final, err := client.WaitJob(ctx, info.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != JobDone || final.Single == nil {
		t.Fatalf("final: %+v", final)
	}
	// The async result must equal the synchronous endpoint's result.
	sync, err := client.ScheduleSingle(ctx, SingleRequest{Demand: jobDemand, Delta: 100})
	if err != nil {
		t.Fatalf("ScheduleSingle: %v", err)
	}
	if final.Single.CCT != sync.CCT || final.Single.Reconfigs != sync.Reconfigs || final.Single.LowerBound != sync.LowerBound {
		t.Errorf("async %+v != sync %+v", final.Single, sync)
	}
	if final.Finished == "" || final.Started == "" {
		t.Errorf("missing timestamps: %+v", final)
	}
}

func TestJobLifecycleMulti(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()
	req := MultiRequest{Demands: [][][]int64{jobDemand, jobDemand}, Delta: 100, C: 4}
	info, err := client.SubmitJob(ctx, JobRequest{Kind: "multi", Multi: &req})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	final, err := client.WaitJob(ctx, info.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != JobDone || final.Multi == nil {
		t.Fatalf("final: %+v", final)
	}
	sync, err := client.ScheduleMulti(ctx, req)
	if err != nil {
		t.Fatalf("ScheduleMulti: %v", err)
	}
	if len(final.Multi.CCTs) != len(sync.CCTs) || final.Multi.Reconfigs != sync.Reconfigs {
		t.Errorf("async %+v != sync %+v", final.Multi, sync)
	}
	for i := range sync.CCTs {
		if final.Multi.CCTs[i] != sync.CCTs[i] {
			t.Errorf("CCT[%d]: async %d != sync %d", i, final.Multi.CCTs[i], sync.CCTs[i])
		}
	}
}

func TestJobListAndGet(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		info, err := client.SubmitJob(ctx, JobRequest{
			Kind:   "single",
			Single: &SingleRequest{Demand: jobDemand, Delta: 100},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	list, err := client.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for i, j := range list.Jobs {
		if j.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, j.ID, ids[i])
		}
	}
	if _, err := client.Job(ctx, "j99999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown id: %v", err)
	}
}

func TestJobCancelRunning(t *testing.T) {
	_, client := newJobTestServer(t, Options{JobWorkers: 1})
	release, started := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()
	ctx := context.Background()

	info, err := client.SubmitJob(ctx, JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: "test-block"},
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	<-started // the scheduler is provably inside Schedule now
	if _, err := client.CancelJob(ctx, info.ID); err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	final, err := client.WaitJob(ctx, info.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != JobCancelled {
		t.Errorf("state = %s, want cancelled", final.State)
	}
	if final.Single != nil {
		t.Error("cancelled job carries a result")
	}
}

func TestJobCancelQueued(t *testing.T) {
	// One worker, saturated by a blocked job: the second job must be
	// cancellable while still queued, without ever running.
	_, client := newJobTestServer(t, Options{JobWorkers: 1, JobQueue: 8})
	release, started := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()
	ctx := context.Background()

	blocker, err := client.SubmitJob(ctx, JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: "test-block"},
	})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	queued, err := client.SubmitJob(ctx, JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: "test-block"},
	})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	cancelled, err := client.CancelJob(ctx, queued.ID)
	if err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	if cancelled.State != JobCancelled {
		t.Errorf("queued job state after cancel = %s, want cancelled", cancelled.State)
	}
	release()
	final, err := client.WaitJob(ctx, blocker.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob(blocker): %v", err)
	}
	if final.State != JobDone {
		t.Errorf("blocker state = %s, want done", final.State)
	}
	// The cancelled job must stay cancelled and unstarted after the worker
	// freed up: it left the queue when it was cancelled.
	again, err := client.Job(ctx, queued.ID)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if again.State != JobCancelled || again.Started != "" {
		t.Errorf("cancelled-while-queued job: %+v", again)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()
	cases := []JobRequest{
		{},               // no kind
		{Kind: "single"}, // kind without payload
		{Kind: "multi"},  // kind without payload
		{Kind: "bogus", Single: &SingleRequest{Demand: jobDemand, Delta: 1}},                        // unknown kind
		{Kind: "single", Single: &SingleRequest{Demand: [][]int64{{1, 2}}, Delta: 1}},               // non-square
		{Kind: "single", Single: &SingleRequest{Demand: jobDemand, Delta: 1, Algorithm: "no-such"}}, // unknown algorithm
		{Kind: "multi", Multi: &MultiRequest{Demands: nil, Delta: 1}},                               // empty batch
	}
	for i, req := range cases {
		if _, err := client.SubmitJob(ctx, req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("case %d: err = %v, want 400", i, err)
		}
	}
}

func TestJobSubmitAfterCloseRejected(t *testing.T) {
	ensureTestBlock()
	s := NewServer(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	s.Close()
	_, err := client.SubmitJob(context.Background(), JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100},
	})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("submit after close: %v, want 503", err)
	}
}

func TestJobEndpointMethods(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	// DELETE on the collection is not a route.
	req, _ := http.NewRequest(http.MethodDelete, strings.TrimSuffix(client.base, "/")+"/v1/jobs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/jobs = %d, want 405", resp.StatusCode)
	}
}

// TestFinishedJobsDropTheirDemand: a finished job's record is retained for
// status queries, up to JobRetention of them, and keeps its rendered
// response, never its request's n² matrices — whether the job finished or
// failed, and from the moment it was cancelled or shed while queued, not
// once a worker would have reached it.
func TestFinishedJobsDropTheirDemand(t *testing.T) {
	s, client := newJobTestServer(t, Options{JobWorkers: 1, JobQueue: 2})
	release, started := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()
	ctx := context.Background()
	submit := func(req JobRequest) string {
		t.Helper()
		info, err := client.SubmitJob(ctx, req)
		if err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
		return info.ID
	}
	single := func(algorithm string, delta int64, weight float64) JobRequest {
		return JobRequest{Kind: "single", Single: &SingleRequest{Demand: jobDemand, Delta: delta, Algorithm: algorithm, Weight: weight}}
	}
	holdsDemand := func(ids ...string) {
		t.Helper()
		s.jobs.mu.Lock()
		defer s.jobs.mu.Unlock()
		for _, id := range ids {
			if j := s.jobs.jobs[id]; len(j.areq.Demands) != 0 {
				t.Errorf("%s job %s still references its %d demand matrices", j.state, id, len(j.areq.Demands))
			}
		}
	}

	blocker := submit(single("test-block", 100, 1))
	<-started
	queued := submit(single("", 100, 1))
	if _, err := client.CancelJob(ctx, queued); err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	// With the queue at its bound of 2, a heavier arrival sheds the
	// lightest queued job.
	victim := submit(single("", 100, 1))
	kept := submit(single("", 100, 2))
	heavy := submit(single("", 100, 8))
	holdsDemand(queued, victim)
	release()

	ids := []string{blocker, queued, victim, kept, heavy}
	// Until kept and heavy leave the queue it is full, and admission turns
	// a lighter arrival away.
	for _, id := range []string{kept, heavy} {
		if _, err := client.WaitJob(ctx, id, time.Millisecond); err != nil {
			t.Fatalf("WaitJob: %v", err)
		}
	}
	want := []string{JobDone, JobCancelled, JobShed, JobDone, JobDone, JobDone, JobDone, JobFailed}
	for _, req := range []JobRequest{
		single("", 100, 1),
		{Kind: "multi", Multi: &MultiRequest{Demands: [][][]int64{jobDemand, jobDemand}, Delta: 100, C: 4}},
		single(algo.NameHelios, 0, 1), // helios refuses δ = 0: a failed job
	} {
		// One at a time, so no submission meets a full queue.
		id := submit(req)
		if _, err := client.WaitJob(ctx, id, time.Millisecond); err != nil {
			t.Fatalf("WaitJob: %v", err)
		}
		ids = append(ids, id)
	}
	for k, id := range ids {
		info, err := client.WaitJob(ctx, id, time.Millisecond)
		if err != nil {
			t.Fatalf("WaitJob: %v", err)
		}
		if info.State != want[k] {
			t.Errorf("job %s: state %s, want %s", id, info.State, want[k])
		}
	}
	holdsDemand(ids...)
}

// Cancelled queued jobs leave the queue: a stream of submit-then-cancel
// cycles behind one running job never fills it. (Once, each left a dead
// closure in a second, physical queue of 4·JobQueue+16 slots, and submit
// 25 answered 503 "job queue full" to an empty queue.)
func TestCancelledJobsNeverFillTheQueue(t *testing.T) {
	_, client := newJobTestServer(t, Options{JobWorkers: 1, JobQueue: 2})
	release, started := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()
	ctx := context.Background()
	req := JobRequest{Kind: "single", Single: &SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: "test-block"}}

	blocker, err := client.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	for i := 1; i <= 40; i++ {
		info, err := client.SubmitJob(ctx, req)
		if err != nil {
			t.Fatalf("submit %d behind one running job and an empty queue: %v", i, err)
		}
		if _, err := client.CancelJob(ctx, info.ID); err != nil {
			t.Fatalf("cancel %d: %v", i, err)
		}
	}
	list, err := client.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	for _, j := range list.Jobs {
		if j.State == JobQueued {
			t.Errorf("job %s queued after every queued job was cancelled", j.ID)
		}
	}
	release()
	if final, err := client.WaitJob(ctx, blocker.ID, time.Millisecond); err != nil || final.State != JobDone {
		t.Fatalf("blocker: %+v, %v", final, err)
	}
}

// TestJobCancelRacesWorker runs submits, cancels and the shedding a full
// queue forces concurrently with two workers taking jobs, half of them
// while the workers are blocked and half while jobs run straight through.
// Every accepted job ends in exactly one terminal state, counted once in
// jobs_finished_total; jobs_pending returns to 0; a job cancelled while
// queued never started; and Close returns. Run it under -race.
func TestJobCancelRacesWorker(t *testing.T) {
	ensureTestBlock()
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()
	s := NewServer(Options{NoCache: true, JobWorkers: 2, JobQueue: 3})
	h := s.Handler()
	release, started := testBlock.arm()
	defer testBlock.disarm()
	drained := make(chan struct{})
	defer close(drained)
	// Every Schedule call sends a token. Once the gate opens, more than the
	// channel holds run straight through, and Close runs the queued rest
	// without cancelling them, so only draining keeps them from waiting.
	go func() {
		for {
			select {
			case <-started:
			case <-drained:
				return
			}
		}
	}()
	do := func(path, body string) (int, JobInfo) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var info JobInfo
		_ = json.Unmarshal(rec.Body.Bytes(), &info)
		return rec.Code, info
	}

	const submitters, each = 4, 25
	var (
		mu                        sync.Mutex
		accepted, cancelledQueued []string
		submits                   atomic.Int64
		wg                        sync.WaitGroup
	)
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				if submits.Add(1) == submitters*each/2 {
					release()
				}
				code, info := do("/v1/jobs", fmt.Sprintf(`{"kind":"single","single":{"demand":[[1,2],[3,4]],"delta":1,"algorithm":"test-block","weight":%d}}`, 1<<(i%3)))
				if code == http.StatusTooManyRequests {
					continue
				}
				if code != http.StatusAccepted {
					t.Errorf("submit: status %d", code)
					continue
				}
				mu.Lock()
				accepted = append(accepted, info.ID)
				mu.Unlock()
				if (g+i)%2 != 0 {
					continue
				}
				// Only this cancel can end the job as cancelled, so a
				// cancelled snapshot means it was still queued.
				if code, c := do("/v1/jobs/"+info.ID+"/cancel", ""); code != http.StatusOK {
					t.Errorf("cancel %s: status %d", info.ID, code)
				} else if c.State == JobCancelled {
					mu.Lock()
					cancelledQueued = append(cancelledQueued, info.ID)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	release()
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}

	for _, id := range accepted {
		if info, ok := s.jobs.get(id); !ok || !terminal(info.State) {
			t.Errorf("job %s after Close: %+v", id, info)
		}
	}
	var finished int64
	for _, state := range []string{JobDone, JobFailed, JobCancelled, JobShed} {
		finished += reg.Counter(obs.L("jobs_finished_total", "state", state)).Value()
	}
	if n := int64(len(accepted)); finished != n || reg.Counter("jobs_submitted_total").Value() != n {
		t.Errorf("%d jobs accepted, %d submitted, %d terminal transitions", n,
			reg.Counter("jobs_submitted_total").Value(), finished)
	}
	t.Logf("%d accepted, %d rejected, %d shed, %d cancelled while queued", len(accepted),
		reg.Counter("jobs_rejected_total").Value(), reg.Counter("jobs_shed_total").Value(), len(cancelledQueued))
	if v := reg.Gauge("jobs_pending").Value(); v != 0 {
		t.Errorf("jobs_pending = %v after Close, want 0", v)
	}
	for _, id := range cancelledQueued {
		if info, _ := s.jobs.get(id); info.State != JobCancelled || info.Started != "" {
			t.Errorf("job cancelled while queued: %+v", info)
		}
	}
}
