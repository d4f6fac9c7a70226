package topology_test

import (
	"errors"
	"reflect"
	"testing"

	"reco/internal/kcore"
	"reco/internal/matrix"
	"reco/internal/topology"
)

// The split strategies live beside their callers in internal/kcore; their
// tests stay here with the fabric model they exercise.

func mustMatrix(t *testing.T, n int, vals ...int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.New(n)
	if err != nil {
		t.Fatalf("matrix.New(%d): %v", n, err)
	}
	if len(vals) != n*n {
		t.Fatalf("want %d values, got %d", n*n, len(vals))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, vals[i*n+j])
		}
	}
	return m
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		topo topology.Topology
		ok   bool
	}{
		{"single", topology.Single(4, 100), true},
		{"multi", topology.Topology{Ports: 8, Cores: []topology.Core{{1, 50}, {2, 10}}}, true},
		{"zero ports", topology.Topology{Ports: 0, Cores: []topology.Core{{1, 0}}}, false},
		{"no cores", topology.Topology{Ports: 4}, false},
		{"zero bandwidth", topology.Topology{Ports: 4, Cores: []topology.Core{{0, 10}}}, false},
		{"negative delta", topology.Topology{Ports: 4, Cores: []topology.Core{{1, -1}}}, false},
	}
	for _, tc := range cases {
		err := tc.topo.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: want error, got nil", tc.name)
			} else if !errors.Is(err, topology.ErrBadTopology) {
				t.Errorf("%s: error %v not ErrBadTopology", tc.name, err)
			}
		}
	}
}

func TestUniform(t *testing.T) {
	topo, err := topology.Uniform(16, 4, 75)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	if topo.K() != 4 || topo.Ports != 16 {
		t.Fatalf("got K=%d ports=%d", topo.K(), topo.Ports)
	}
	if topo.TotalBandwidth() != 4 || topo.MinDelta() != 75 {
		t.Fatalf("got bandwidth=%d minDelta=%d", topo.TotalBandwidth(), topo.MinDelta())
	}
	if _, err := topology.Uniform(16, 0, 75); !errors.Is(err, topology.ErrBadTopology) {
		t.Fatalf("Uniform k=0: got %v, want ErrBadTopology", err)
	}
}

func TestLowerBound(t *testing.T) {
	d := mustMatrix(t, 3,
		6, 2, 0,
		0, 4, 0,
		3, 0, 5)
	// rho = max(row/col sums) = 8 (row 0 and cols 0/1 have 8... row0=8, col0=9).
	if got := d.MaxRowColSum(); got != 9 {
		t.Fatalf("rho = %d, want 9", got)
	}
	// tau = max non-zeros in any row/col = 2.
	if got := d.MaxRowColNonZeros(); got != 2 {
		t.Fatalf("tau = %d, want 2", got)
	}
	if got, want := topology.LowerBound(d, topology.Single(3, 10)), int64(9+2*10); got != want {
		t.Errorf("K=1 lower bound = %d, want %d", got, want)
	}
	topo, _ := topology.Uniform(3, 2, 10)
	// ceil(9/2) + ceil(2/2)*10 = 5 + 10.
	if got, want := topology.LowerBound(d, topo), int64(15); got != want {
		t.Errorf("K=2 lower bound = %d, want %d", got, want)
	}
	// Lower bound must never increase with K.
	prev := topology.LowerBound(d, topology.Single(3, 10))
	for _, k := range []int{2, 4, 8} {
		tk, _ := topology.Uniform(3, k, 10)
		lb := topology.LowerBound(d, tk)
		if lb > prev {
			t.Errorf("lower bound increased from %d to %d at K=%d", prev, lb, k)
		}
		prev = lb
	}
}

// checkSplit verifies the shared split invariants: K shares of the right
// dimension that sum exactly to d.
func checkSplit(t *testing.T, d *matrix.Matrix, topo topology.Topology, shares []*matrix.Matrix) {
	t.Helper()
	if len(shares) != topo.K() {
		t.Fatalf("got %d shares, want %d", len(shares), topo.K())
	}
	sum, _ := matrix.New(d.N())
	for c, s := range shares {
		if s.N() != d.N() {
			t.Fatalf("share %d has dimension %d, want %d", c, s.N(), d.N())
		}
		for i := 0; i < d.N(); i++ {
			for j := 0; j < d.N(); j++ {
				if v := s.At(i, j); v < 0 {
					t.Fatalf("share %d negative entry at (%d,%d)", c, i, j)
				} else if v > 0 {
					sum.Add(i, j, v)
				}
			}
		}
	}
	if !sum.Equal(d) {
		t.Fatalf("shares do not sum to demand:\nsum=%v\nd=%v", sum, d)
	}
}

func TestSplitInvariants(t *testing.T) {
	d := mustMatrix(t, 4,
		9, 0, 3, 1,
		0, 7, 0, 2,
		5, 0, 8, 0,
		0, 6, 0, 4)
	for _, k := range []int{1, 2, 3, 4, 8} {
		topo, _ := topology.Uniform(4, k, 25)
		for name, split := range map[string]func(*matrix.Matrix, topology.Topology) ([]*matrix.Matrix, error){
			"greedy":     kcore.SplitGreedy,
			"roundrobin": kcore.SplitRoundRobin,
		} {
			shares, err := split(d, topo)
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			checkSplit(t, d, topo, shares)
			// Determinism: a second call must be identical.
			again, _ := split(d, topo)
			if !reflect.DeepEqual(shares, again) {
				t.Errorf("%s K=%d: split is not deterministic", name, k)
			}
		}
	}
}

func TestSplitKOneIsClone(t *testing.T) {
	d := mustMatrix(t, 2, 3, 1, 0, 2)
	for name, split := range map[string]func(*matrix.Matrix, topology.Topology) ([]*matrix.Matrix, error){
		"greedy":     kcore.SplitGreedy,
		"roundrobin": kcore.SplitRoundRobin,
	} {
		shares, err := split(d, topology.Single(2, 5))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(shares) != 1 || !shares[0].Equal(d) {
			t.Errorf("%s: K=1 share is not the demand matrix", name)
		}
		// Must be a copy, not an alias.
		shares[0].Add(0, 0, 1)
		if d.At(0, 0) != 3 {
			t.Errorf("%s: K=1 share aliases the input", name)
		}
	}
}

func TestSplitGreedyBalances(t *testing.T) {
	// Four equal entries on one bottleneck row: greedy must spread them over
	// all four cores, round-robin happens to as well — but greedy must also
	// spread four equal entries that round-robin would collide (same row,
	// interleaved with zero rows elsewhere).
	d := mustMatrix(t, 4,
		10, 10, 10, 10,
		0, 0, 0, 0,
		0, 0, 0, 0,
		0, 0, 0, 0)
	topo, _ := topology.Uniform(4, 4, 25)
	shares, err := kcore.SplitGreedy(d, topo)
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range shares {
		if got := s.Total(); got != 10 {
			t.Errorf("core %d carries %d, want 10 (perfect spread)", c, got)
		}
	}
}

func TestSplitGreedyRespectsBandwidth(t *testing.T) {
	// One fast core (bandwidth 3) and one slow: with equal δ the fast core
	// should absorb most of the load of a single hot row.
	d := mustMatrix(t, 2,
		12, 12,
		0, 0)
	topo := topology.Topology{Ports: 2, Cores: []topology.Core{{Bandwidth: 3, Delta: 0}, {Bandwidth: 1, Delta: 0}}}
	shares, err := kcore.SplitGreedy(d, topo)
	if err != nil {
		t.Fatal(err)
	}
	if shares[0].Total() <= shares[1].Total() {
		t.Errorf("fast core carries %d, slow core %d — want fast > slow",
			shares[0].Total(), shares[1].Total())
	}
	checkSplit(t, d, topo, shares)
}

func TestSplitRejectsMismatch(t *testing.T) {
	d := mustMatrix(t, 2, 1, 0, 0, 1)
	topo, _ := topology.Uniform(3, 2, 10)
	if _, err := kcore.SplitGreedy(d, topo); !errors.Is(err, topology.ErrBadTopology) {
		t.Errorf("greedy dimension mismatch: got %v", err)
	}
	if _, err := kcore.SplitRoundRobin(d, topo); !errors.Is(err, topology.ErrBadTopology) {
		t.Errorf("roundrobin dimension mismatch: got %v", err)
	}
}
