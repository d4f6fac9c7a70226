package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"reco/internal/algo"
	"reco/internal/api"
)

func newServer(t *testing.T) string {
	t.Helper()
	s := api.NewServer(api.Options{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); s.Close() })
	return srv.URL
}

func TestHealthSubcommand(t *testing.T) {
	url := newServer(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-server", url, "health"}, nil, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("output: %q", out.String())
	}
}

func TestSingleSubcommandFromStdin(t *testing.T) {
	url := newServer(t)
	stdin := strings.NewReader(`[[104,109,102],[103,105,107],[108,101,106]]`)
	var out, errBuf bytes.Buffer
	code := run([]string{"-server", url, "single", "-demand", "-", "-delta", "100"}, stdin, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	var resp api.SingleResponse
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("decoding output: %v", err)
	}
	if resp.CCT != 618 {
		t.Errorf("CCT = %d, want 618", resp.CCT)
	}
}

func TestWorkloadPipesIntoMulti(t *testing.T) {
	url := newServer(t)
	var wl, errBuf bytes.Buffer
	code := run([]string{"-server", url, "workload", "-n", "10", "-coflows", "4", "-seed", "2"}, nil, &wl, &errBuf)
	if code != 0 {
		t.Fatalf("workload exit %d, stderr: %s", code, errBuf.String())
	}
	var out bytes.Buffer
	errBuf.Reset()
	code = run([]string{"-server", url, "multi", "-demands", "-", "-delta", "100", "-c", "4"},
		bytes.NewReader(wl.Bytes()), &out, &errBuf)
	if code != 0 {
		t.Fatalf("multi exit %d, stderr: %s", code, errBuf.String())
	}
	var summary struct {
		CCTs      []int64 `json:"ccts"`
		Reconfigs int     `json:"reconfigs"`
	}
	if err := json.Unmarshal(out.Bytes(), &summary); err != nil {
		t.Fatalf("decoding output: %v", err)
	}
	if len(summary.CCTs) != 4 || summary.Reconfigs <= 0 {
		t.Errorf("summary: %+v", summary)
	}
}

// TestJobSubcommands drives submit/status/list/cancel against a live
// httptest server, with a table of both good and bad invocations.
func TestJobSubcommands(t *testing.T) {
	url := newServer(t)
	demand := `[[104,109,102],[103,105,107],[108,101,106]]`

	// Submit with -wait so the job is terminal, then feed its id into the
	// table below.
	var out, errBuf bytes.Buffer
	code := run([]string{"-server", url, "job", "submit", "-kind", "single", "-demand", "-", "-delta", "100", "-wait", "-poll", "1ms"},
		strings.NewReader(demand), &out, &errBuf)
	if code != 0 {
		t.Fatalf("job submit exit %d, stderr: %s", code, errBuf.String())
	}
	var done api.JobInfo
	if err := json.Unmarshal(out.Bytes(), &done); err != nil {
		t.Fatalf("decoding submit output: %v", err)
	}
	if done.State != api.JobDone || done.Single == nil || done.Single.CCT != 618 {
		t.Fatalf("waited job: %+v", done)
	}

	cases := []struct {
		name     string
		args     []string
		stdin    string
		wantCode int
		wantOut  string // substring of stdout when wantCode == 0
	}{
		{"status", []string{"job", "status", done.ID}, "", 0, `"state": "done"`},
		{"list", []string{"job", "list"}, "", 0, done.ID},
		{"cancel terminal job", []string{"job", "cancel", done.ID}, "", 0, `"state": "done"`},
		{"submit multi", []string{"job", "submit", "-kind", "multi", "-demands", "-", "-delta", "100", "-c", "4", "-wait", "-poll", "1ms"},
			"[" + demand + "," + demand + "]", 0, `"state": "done"`},
		{"status unknown id", []string{"job", "status", "j99999999"}, "", 1, ""},
		{"cancel unknown id", []string{"job", "cancel", "j99999999"}, "", 1, ""},
		{"status without id", []string{"job", "status"}, "", 1, ""},
		{"missing verb", []string{"job"}, "", 2, ""},
		{"unknown verb", []string{"job", "frob"}, "", 2, ""},
		{"bad kind", []string{"job", "submit", "-kind", "triple", "-demand", "-"}, demand, 1, ""},
		{"unknown algorithm", []string{"job", "submit", "-kind", "single", "-demand", "-", "-alg", "no-such"}, demand, 1, ""},
		{"malformed demand", []string{"job", "submit", "-kind", "single", "-demand", "-"}, "{", 1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			args := append([]string{"-server", url}, tc.args...)
			code := run(args, strings.NewReader(tc.stdin), &out, &errBuf)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.wantCode, errBuf.String())
			}
			if tc.wantOut != "" && !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("stdout %q does not contain %q", out.String(), tc.wantOut)
			}
		})
	}
}

func TestBadInvocations(t *testing.T) {
	url := newServer(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-server", url}, nil, &out, &errBuf); code != 2 {
		t.Errorf("missing subcommand: exit %d", code)
	}
	if code := run([]string{"-server", url, "bogus"}, nil, &out, &errBuf); code != 2 {
		t.Errorf("unknown subcommand: exit %d", code)
	}
	if code := run([]string{"-server", url, "single", "-demand", "-"}, strings.NewReader("{"), &out, &errBuf); code != 1 {
		t.Errorf("malformed demand: exit %d", code)
	}
	if code := run([]string{"-server", url, "single", "-demand", "/nonexistent.json"}, nil, &out, &errBuf); code != 1 {
		t.Errorf("missing file: exit %d", code)
	}
	if code := run([]string{"-server", "http://127.0.0.1:1", "health"}, nil, &out, &errBuf); code != 1 {
		t.Errorf("dead server: exit %d", code)
	}
	errBuf.Reset()
	if code := run([]string{"-server", url, "workload", "-n", "100000", "-coflows", "1"}, nil, &out, &errBuf); code != 1 ||
		!strings.Contains(errBuf.String(), "workload too large") {
		t.Errorf("oversized workload: exit %d, stderr %q", code, errBuf.String())
	}
}

// TestKnobFlags iterates algo.KnobTable: every row's flag exists on the
// three scheduling subcommands and reaches the server — an unset value is
// served, a set one draws the server's capability 400 under reco-sin.
func TestKnobFlags(t *testing.T) {
	url := newServer(t)
	demand := `[[104,109,102],[103,105,107],[108,101,106]]`
	subcommands := []struct {
		args  []string
		stdin string
	}{
		{[]string{"single", "-demand", "-"}, demand},
		{[]string{"multi", "-demands", "-"}, "[" + demand + "]"},
		{[]string{"job", "submit", "-kind", "single", "-demand", "-", "-wait", "-poll", "1ms"}, demand},
	}
	for i := range algo.KnobTable {
		kn := &algo.KnobTable[i]
		for _, sub := range subcommands {
			for _, tc := range []struct {
				value    float64
				wantCode int
			}{{kn.Unset, 0}, {kn.Max, 1}} {
				args := append([]string{"-server", url}, sub.args...)
				args = append(args, "-alg", algo.NameRecoSin, "-"+kn.Flag(), strconv.FormatFloat(tc.value, 'f', -1, 64))
				var out, errBuf bytes.Buffer
				code := run(args, strings.NewReader(sub.stdin), &out, &errBuf)
				if sub.args[0] == "job" && tc.wantCode == 1 {
					// A job is accepted and fails asynchronously.
					if code != 0 || !strings.Contains(out.String(), kn.Cap+" capability") {
						t.Errorf("recoctl %v: exit %d, output %s", args, code, out.String())
					}
					continue
				}
				if code != tc.wantCode {
					t.Errorf("recoctl %v: exit %d, want %d (stderr: %s)", args, code, tc.wantCode, errBuf.String())
				}
				if tc.wantCode == 1 && !strings.Contains(errBuf.String(), kn.Cap+" capability") {
					t.Errorf("recoctl %v: stderr %q does not name the %s capability", args, errBuf.String(), kn.Cap)
				}
			}
		}
	}
}
