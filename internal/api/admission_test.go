package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Overload scenario: one worker pinned by a blocked job, the logical queue
// full. Every further submission forces an admission decision, and with
// loose deadlines the victims must follow admission.ShedOrder exactly —
// lowest weight first, loosest deadline among equals.
func TestJobQueueShedsByWeightThenDeadline(t *testing.T) {
	_, client := newJobTestServer(t, Options{NoCache: true, JobWorkers: 1, JobQueue: 3})
	release, started := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()
	ctx := context.Background()

	submit := func(weight float64, deadlineMS int64) (*JobInfo, error) {
		return client.SubmitJob(ctx, JobRequest{
			Kind: "single",
			Single: &SingleRequest{
				Demand: jobDemand, Delta: 100, Algorithm: "test-block",
				Weight: weight, DeadlineMS: deadlineMS,
			},
		})
	}

	running, err := submit(1, 0)
	if err != nil {
		t.Fatalf("running job: %v", err)
	}
	<-started // the worker is now pinned

	jobA, err := submit(2, 500_000) // weight 2, 500s deadline
	if err != nil {
		t.Fatalf("job A: %v", err)
	}
	jobB, err := submit(2, 0) // weight 2, no deadline: loosest of the w=2 pair
	if err != nil {
		t.Fatalf("job B: %v", err)
	}
	jobC, err := submit(4, 100_000)
	if err != nil {
		t.Fatalf("job C: %v", err)
	}

	// Queue is at its bound (3). A heavier arrival must shed B first:
	// weight ties between A and B break toward the looser deadline.
	jobD, err := submit(8, 50_000)
	if err != nil {
		t.Fatalf("job D rejected, want B shed instead: %v", err)
	}
	assertState := func(id, want string) {
		t.Helper()
		info, err := client.Job(ctx, id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if info.State != want {
			t.Fatalf("job %s state %q, want %q", id, info.State, want)
		}
	}
	assertState(jobB.ID, JobShed)
	assertState(jobA.ID, JobQueued)

	// Next arrival sheds A, the remaining lowest weight.
	jobE, err := submit(8, 50_000)
	if err != nil {
		t.Fatalf("job E rejected, want A shed instead: %v", err)
	}
	assertState(jobA.ID, JobShed)
	assertState(jobC.ID, JobQueued)
	assertState(jobD.ID, JobQueued)
	assertState(jobE.ID, JobQueued)

	// A featherweight arrival is itself the shed victim: structured 429
	// with a retry hint, nothing else disturbed.
	_, err = submit(1, 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("lightweight submit error %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", apiErr.Status)
	}
	if apiErr.RetryAfterMS <= 0 {
		t.Fatalf("429 carried no retry hint: %+v", apiErr)
	}
	assertState(jobC.ID, JobQueued)

	// Shed jobs are terminal for WaitJob.
	info, err := client.WaitJob(ctx, jobA.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob(shed): %v", err)
	}
	if info.State != JobShed || info.Error == "" {
		t.Fatalf("shed job info: %+v", info)
	}

	release()
	if _, err := client.WaitJob(ctx, running.ID, time.Millisecond); err != nil {
		t.Fatalf("drain running: %v", err)
	}
}

// A request deadline bounds the synchronous computation: blowing it is a
// structured 504.
func TestSyncDeadlineExceededIs504(t *testing.T) {
	_, client := newJobTestServer(t, Options{NoCache: true})
	release, _ := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()

	_, err := client.ScheduleSingle(context.Background(), SingleRequest{
		Demand: jobDemand, Delta: 100, Algorithm: "test-block", DeadlineMS: 30,
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", apiErr.Status)
	}
}

// Helios runs ⌈ρ/4δ⌉ slots however small the matrix, so a 2×2 request can
// ask for a million of them. Its deadline must stop the slots, not answer
// 200 long after it passed. Without the plan cache the computation runs on
// the request's own context; with it, the cancelled shared computation
// stops the same way (tms.TestScheduleHeliosHonorsContext).
func TestHeliosDeadlineStopsSlots(t *testing.T) {
	srv := NewServer(Options{NoCache: true})
	defer srv.Close()
	body := `{"demand":[[4000000,0],[0,1]],"delta":1,"algorithm":"helios","deadline_ms":10}`
	start := time.Now()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule/single", strings.NewReader(body)))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %.200s", rec.Code, rec.Body.Bytes())
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("504 after %v, want it near the 10 ms deadline", took)
	}
}

func TestSLAValidation(t *testing.T) {
	_, client := newJobTestServer(t, Options{NoCache: true})
	ctx := context.Background()
	var apiErr *APIError

	_, err := client.ScheduleSingle(ctx, SingleRequest{Demand: jobDemand, Delta: 100, DeadlineMS: -5})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("negative deadline: %v", err)
	}
	_, err = client.ScheduleMulti(ctx, MultiRequest{Demands: [][][]int64{jobDemand}, Delta: 100, C: 4, Weight: -1})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("negative weight: %v", err)
	}
	_, err = client.SubmitJob(ctx, JobRequest{Kind: "single", Single: &SingleRequest{
		Demand: jobDemand, Delta: 100, DeadlineMS: -1,
	}})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("negative job deadline: %v", err)
	}
}

// A job finishing past its deadline is done but flagged missed.
func TestJobDeadlineMissReported(t *testing.T) {
	_, client := newJobTestServer(t, Options{NoCache: true})
	release, started := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()
	ctx := context.Background()

	info, err := client.SubmitJob(ctx, JobRequest{Kind: "single", Single: &SingleRequest{
		Demand: jobDemand, Delta: 100, Algorithm: "test-block", DeadlineMS: 20, Weight: 3,
	}})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	<-started
	time.Sleep(40 * time.Millisecond) // let the deadline lapse mid-run
	release()
	final, err := client.WaitJob(ctx, info.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != JobDone || !final.Missed {
		t.Fatalf("final: %+v, want done+missed", final)
	}
	if final.Weight != 3 || final.DeadlineMS != 20 {
		t.Fatalf("SLA echo: %+v", final)
	}
}

// A 429 surfaces as a typed APIError carrying the hint from either the
// JSON body or the Retry-After header.
func TestAPIErrorCarriesRetryHint(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeErrorRetry(w, http.StatusTooManyRequests, "over capacity", 2500)
	}))
	defer srv.Close()

	err := NewClient(srv.URL, srv.Client()).Healthz(context.Background())
	if err == nil {
		t.Fatal("expected error")
	}
	// Healthz doesn't decode the envelope; use a path that does.
	_, err = NewClient(srv.URL, srv.Client()).Job(context.Background(), "j1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfterMS != 2500 {
		t.Fatalf("apiErr %+v, want 429 with 2500ms hint", apiErr)
	}
	if apiErr.Msg != "over capacity" {
		t.Fatalf("msg %q", apiErr.Msg)
	}
}
