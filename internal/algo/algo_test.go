package algo

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"reco/internal/matrix"
)

// fake is a minimal Scheduler for registry-mechanics tests. The algo package
// itself registers nothing, so these tests own every name they see.
type fake struct{ name string }

func (f fake) Name() string       { return f.name }
func (f fake) Describe() string   { return "fake scheduler " + f.name }
func (f fake) Caps() Capabilities { return Capabilities{SingleCoflow: true} }
func (f fake) Schedule(ctx context.Context, req Request) (*Result, error) {
	return &Result{CCTs: make([]int64, len(req.Demands))}, nil
}

func TestRegistryLookupAndOrder(t *testing.T) {
	Register(fake{name: "zz-test"})
	Register(fake{name: "aa-test"})
	Register(fake{name: "mm-test"})

	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"aa-test", "mm-test", "zz-test"} {
		s, err := Get(want)
		if err != nil {
			t.Fatalf("Get(%q): %v", want, err)
		}
		if s.Name() != want {
			t.Fatalf("Get(%q).Name() = %q", want, s.Name())
		}
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d entries, Names() %d", len(all), len(names))
	}
	for i, s := range all {
		if s.Name() != names[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, s.Name(), names[i])
		}
	}
}

// TestRegistryValidatesForTheScheduler: fake.Schedule checks nothing, yet
// through the registry a malformed request or a cancelled context never
// reaches it — the check is the registry's, not each registration's.
func TestRegistryValidatesForTheScheduler(t *testing.T) {
	Register(fake{name: "unchecked-test"})
	s := MustGet("unchecked-test")
	d, err := matrix.New(2)
	if err != nil {
		t.Fatal(err)
	}
	ok := Request{Demands: []*matrix.Matrix{d}, Delta: 10}
	if _, err := s.Schedule(context.Background(), ok); err != nil {
		t.Fatalf("valid request: %v", err)
	}
	if _, err := s.Schedule(context.Background(), Request{Delta: 10}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty request returned %v, want ErrBadRequest", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Schedule(ctx, ok); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx returned %v, want context.Canceled", err)
	}
	if _, err := s.Schedule(ctx, Request{Delta: 10}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad request under a cancelled ctx returned %v, want ErrBadRequest first", err)
	}
}

func TestRegistryUnknownEnumeratesValidNames(t *testing.T) {
	Register(fake{name: "known-test"})
	_, err := Get("no-such-algorithm")
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("Get(unknown) = %v, want ErrUnknown", err)
	}
	if !strings.Contains(err.Error(), "known-test") {
		t.Fatalf("unknown-name error should enumerate valid names, got: %v", err)
	}
	if !strings.Contains(err.Error(), `"no-such-algorithm"`) {
		t.Fatalf("unknown-name error should quote the bad name, got: %v", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { Register(fake{name: ""}) })
	Register(fake{name: "dup-test"})
	mustPanic("duplicate", func() { Register(fake{name: "dup-test"}) })
	mustPanic("MustGet unknown", func() { MustGet("definitely-not-registered") })
}

func TestValidateRequest(t *testing.T) {
	d, err := matrix.New(2)
	if err != nil {
		t.Fatal(err)
	}
	d.Set(0, 1, 5)
	one, err := matrix.New(1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := matrix.New(3)
	if err != nil {
		t.Fatal(err)
	}
	// 2·(ρ + n·δ) with n = 2, δ = 100 fits int64 up to ρ = MaxInt64/2 − 200.
	const edge = math.MaxInt64/2 - 200
	huge := func(v int64) *matrix.Matrix {
		m, err := matrix.FromRows([][]int64{{0, v}, {v, 0}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	wrap, err := matrix.FromRows([][]int64{{1 << 62, 1 << 62}, {1 << 62, 1 << 62}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"valid", Request{Demands: []*matrix.Matrix{d}, Delta: 10, C: 4}, true},
		{"bound at the edge", Request{Demands: []*matrix.Matrix{huge(edge)}, Delta: 100}, true},
		{"bound past the edge", Request{Demands: []*matrix.Matrix{huge(edge + 1)}, Delta: 100}, false},
		{"row sums wrap to zero", Request{Demands: []*matrix.Matrix{wrap}, Delta: 100}, false},
		{"max entries", Request{Demands: []*matrix.Matrix{huge(math.MaxInt64)}, Delta: 100}, false},
		{"batch bound past the edge", Request{Demands: []*matrix.Matrix{huge(edge / 2), huge(edge / 2)}, Delta: 100}, false},
		{"batch bound within", Request{Demands: []*matrix.Matrix{huge(edge/2 - 100), huge(edge/2 - 100)}, Delta: 100}, true},
		{"delta times ports overflows", Request{Demands: []*matrix.Matrix{d}, Delta: math.MaxInt64/2 + 1}, false},
		{"delta alone past the edge", Request{Demands: []*matrix.Matrix{d}, Delta: math.MaxInt64 / 4}, false},
		{"largest delta", Request{Demands: []*matrix.Matrix{d}, Delta: math.MaxInt64/4 - 5}, true},
		{"zero delta", Request{Demands: []*matrix.Matrix{d}}, true},
		{"no demands", Request{Delta: 10}, false},
		{"nil matrix", Request{Demands: []*matrix.Matrix{nil}, Delta: 10}, false},
		{"mixed dims", Request{Demands: []*matrix.Matrix{d, small}, Delta: 10}, false},
		{"negative delta", Request{Demands: []*matrix.Matrix{d}, Delta: -1}, false},
		{"negative c", Request{Demands: []*matrix.Matrix{d}, Delta: 10, C: -1}, false},
		{"c times delta at the edge", Request{Demands: []*matrix.Matrix{d}, Delta: 100, C: math.MaxInt64 / 100}, true},
		{"c times delta overflows", Request{Demands: []*matrix.Matrix{d}, Delta: 100, C: math.MaxInt64/100 + 1}, false},
		{"largest c, zero delta", Request{Demands: []*matrix.Matrix{d}, C: math.MaxInt64}, true},
		// A single request carries the default c = 4: at n = 1 the demand
		// bound admits δ up to MaxInt64/2, c·δ only up to MaxInt64/4.
		{"default c, largest delta", Request{Demands: []*matrix.Matrix{one}, Delta: math.MaxInt64 / 4, C: 4}, true},
		{"default c times delta overflows", Request{Demands: []*matrix.Matrix{one}, Delta: math.MaxInt64/4 + 1, C: 4}, false},
		{"no c, same delta", Request{Demands: []*matrix.Matrix{one}, Delta: math.MaxInt64/4 + 1}, true},
		{"zero weight", Request{Demands: []*matrix.Matrix{d}, Weights: []float64{0}, Delta: 10}, true},
		{"short weights", Request{Demands: []*matrix.Matrix{d, d}, Weights: []float64{2}, Delta: 10}, true},
		{"surplus weights", Request{Demands: []*matrix.Matrix{d}, Weights: []float64{1, 2}, Delta: 10}, true},
		{"negative weight", Request{Demands: []*matrix.Matrix{d}, Weights: []float64{-1}, Delta: 10}, false},
		{"NaN weight", Request{Demands: []*matrix.Matrix{d}, Weights: []float64{math.NaN()}, Delta: 10}, false},
		{"infinite weight", Request{Demands: []*matrix.Matrix{d, d}, Weights: []float64{1, math.Inf(1)}, Delta: 10}, false},
	}
	for _, tc := range cases {
		err := ValidateRequest(tc.req)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s: error %v is not ErrBadRequest", tc.name, err)
			}
		}
	}
}
