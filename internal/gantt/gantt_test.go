package gantt

import (
	"errors"
	"strings"
	"testing"

	"reco/internal/schedule"
)

func TestRenderFlowsEmpty(t *testing.T) {
	out, err := RenderFlows(nil, 2, 40)
	if err != nil {
		t.Fatalf("RenderFlows: %v", err)
	}
	if !strings.Contains(out, "empty") {
		t.Errorf("empty schedule render: %q", out)
	}
}

func TestRenderFlowsBadWidth(t *testing.T) {
	if _, err := RenderFlows(nil, 2, 0); !errors.Is(err, ErrBadWidth) {
		t.Errorf("zero width: %v", err)
	}
}

func TestRenderFlowsBadPort(t *testing.T) {
	s := schedule.FlowSchedule{{Start: 0, End: 10, In: 5, Out: 0}}
	if _, err := RenderFlows(s, 2, 10); err == nil {
		t.Error("out-of-range ingress accepted")
	}
}

func TestRenderFlowsBasic(t *testing.T) {
	s := schedule.FlowSchedule{
		{Start: 0, End: 50, In: 0, Out: 0, Coflow: 0},
		{Start: 50, End: 100, In: 0, Out: 1, Coflow: 1},
		{Start: 0, End: 100, In: 1, Out: 2, Coflow: 1},
	}
	out, err := RenderFlows(s, 2, 20)
	if err != nil {
		t.Fatalf("RenderFlows: %v", err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), out)
	}
	// Row for ingress 0: first half A, second half B.
	row0 := lines[1]
	if !strings.Contains(row0, "A") || !strings.Contains(row0, "B") {
		t.Errorf("row 0 missing coflow glyphs: %q", row0)
	}
	if strings.Count(lines[2], "B") != 20 {
		t.Errorf("row 1 should be all B: %q", lines[2])
	}
}

func TestRenderFlowsIdleDots(t *testing.T) {
	s := schedule.FlowSchedule{
		{Start: 0, End: 10, In: 0, Out: 0, Coflow: 0},
		{Start: 90, End: 100, In: 0, Out: 0, Coflow: 0},
	}
	out, err := RenderFlows(s, 1, 10)
	if err != nil {
		t.Fatalf("RenderFlows: %v", err)
	}
	if !strings.Contains(out, ".") {
		t.Errorf("idle period not rendered: %q", out)
	}
}

func TestLegend(t *testing.T) {
	s := schedule.FlowSchedule{
		{Start: 0, End: 1, Coflow: 2},
		{Start: 0, End: 1, Coflow: 0},
	}
	leg := Legend(s)
	if !strings.Contains(leg, "A=coflow 0") || !strings.Contains(leg, "C=coflow 2") {
		t.Errorf("legend wrong: %q", leg)
	}
	if Legend(nil) != "" {
		t.Error("empty legend should be empty")
	}
}
