package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// DefaultTimeout bounds requests made through a NewClient(url, nil) client.
// The service solves LPs and decompositions server-side, so calls are slow
// but not unbounded; http.DefaultClient would wait forever on a hung server.
const DefaultTimeout = 30 * time.Second

// APIError is a non-success response from the service, carrying the
// structured error body. Errors returned by the client's methods unwrap to
// it via errors.As.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Msg is the server's error message.
	Msg string
	// RetryAfterMS is the server's backoff hint (a 429 under load carries
	// one); zero when absent.
	RetryAfterMS int64
}

func (e *APIError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("status %d", e.Status)
	}
	return fmt.Sprintf("status %d: %s", e.Status, e.Msg)
}

// Client talks to a recod scheduling service.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8372"). A nil httpClient gets a dedicated client with
// DefaultTimeout rather than the unbounded http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: DefaultTimeout}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// Healthz checks service liveness.
func (c *Client) Healthz(ctx context.Context) error {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return fmt.Errorf("api: healthz: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("api: healthz status %d", resp.StatusCode)
	}
	return nil
}

// Algorithms fetches the service's scheduler registry.
func (c *Client) Algorithms(ctx context.Context) (*AlgorithmsResponse, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/v1/algorithms", nil)
	if err != nil {
		return nil, fmt.Errorf("api: algorithms: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("api: algorithms status %d", resp.StatusCode)
	}
	var out AlgorithmsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("api: decoding response: %w", err)
	}
	return &out, nil
}

// ScheduleSingle requests a schedule for one coflow (Reco-Sin unless the
// request names another registered algorithm).
func (c *Client) ScheduleSingle(ctx context.Context, req SingleRequest) (*SingleResponse, error) {
	var resp SingleResponse
	if err := c.post(ctx, "/v1/schedule/single", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ScheduleMulti requests a Reco-Mul schedule for a coflow batch.
func (c *Client) ScheduleMulti(ctx context.Context, req MultiRequest) (*MultiResponse, error) {
	var resp MultiResponse
	if err := c.post(ctx, "/v1/schedule/multi", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// GenerateWorkload requests a synthetic workload.
func (c *Client) GenerateWorkload(ctx context.Context, req WorkloadRequest) (*WorkloadResponse, error) {
	var resp WorkloadResponse
	if err := c.post(ctx, "/v1/workload/generate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitJob submits an async scheduling job; the returned info carries the
// job id to poll with Job and the initial state.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (*JobInfo, error) {
	var info JobInfo
	if err := c.postStatus(ctx, "/v1/jobs", http.StatusAccepted, req, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Job fetches one job's current state (including results once terminal).
func (c *Client) Job(ctx context.Context, id string) (*JobInfo, error) {
	var info JobInfo
	if err := c.get(ctx, "/v1/jobs/"+id, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Jobs lists the service's retained jobs in submission order.
func (c *Client) Jobs(ctx context.Context) (*JobListResponse, error) {
	var out JobListResponse
	if err := c.get(ctx, "/v1/jobs", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelJob cancels a queued or running job and returns its state after
// the cancellation request took effect.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobInfo, error) {
	var info JobInfo
	if err := c.postStatus(ctx, "/v1/jobs/"+id+"/cancel", http.StatusOK, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// WaitJob polls a job until it reaches a terminal state, ctx ends, or the
// service forgets the id. poll <= 0 means 50ms.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobInfo, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch info.State {
		case JobDone, JobFailed, JobCancelled, JobShed:
			return info, nil
		}
		if err := sleepCtx(ctx, poll); err != nil {
			return nil, err
		}
	}
}

func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	resp, err := c.roundTrip(ctx, http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("api: %s: %w", path, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("api: %s: %w", path, newAPIError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decoding response: %w", err)
	}
	return nil
}

func (c *Client) post(ctx context.Context, path string, in, out interface{}) error {
	return c.postStatus(ctx, path, http.StatusOK, in, out)
}

// newAPIError builds the typed error from a non-success response body.
func newAPIError(resp *http.Response) *APIError {
	e := &APIError{Status: resp.StatusCode}
	var apiErr errorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&apiErr); err == nil {
		e.Msg = apiErr.Error
		e.RetryAfterMS = apiErr.RetryAfterMS
	}
	if e.RetryAfterMS == 0 {
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				e.RetryAfterMS = int64(secs) * 1000
			}
		}
	}
	return e
}

// postStatus posts in and decodes the response into out, expecting the
// given success status (the job submit endpoint answers 202).
func (c *Client) postStatus(ctx context.Context, path string, want int, in, out interface{}) error {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("api: encoding request: %w", err)
		}
	}
	resp, err := c.roundTrip(ctx, http.MethodPost, path, body)
	if err != nil {
		return fmt.Errorf("api: %s: %w", path, err)
	}
	defer drain(resp)
	if resp.StatusCode != want {
		return fmt.Errorf("api: %s: %w", path, newAPIError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decoding response: %w", err)
	}
	return nil
}

// roundTrip issues one request with the given body. Every response,
// success or not, is returned as-is for the caller to interpret.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http.Do(req)
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// drain discards the rest of the body so the connection can be reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
