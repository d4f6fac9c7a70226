package fabric

import (
	"math/rand"
	"testing"

	"reco/internal/matrix"
	"reco/internal/schedule"
)

func mustMatrix(t testing.TB, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestCircuitTransmitDrainsAndStopsEarly(t *testing.T) {
	rem := mustMatrix(t, [][]int64{
		{5, 0, 0},
		{0, 2, 0},
		{0, 0, 0},
	})
	c := NewCircuit(1)
	c.Establish([]int{0, 1, 2}) // (2,2) has no demand
	if got := c.MaxRemaining(rem); got != 5 {
		t.Fatalf("MaxRemaining = %d, want 5", got)
	}
	var flows schedule.FlowSchedule
	sent := c.Transmit(rem, 10, 15, &flows)
	if sent != 7 {
		t.Fatalf("sent = %d, want 7", sent)
	}
	if !rem.IsZero() {
		t.Fatalf("residual not drained: %v", rem)
	}
	if len(flows) != 2 {
		t.Fatalf("flows = %d intervals, want 2", len(flows))
	}
	// Circuit (1,1) carries 2 ticks of demand: it stops early at tick 12.
	for _, f := range flows {
		want := int64(15)
		if f.In == 1 {
			want = 12
		}
		if f.Start != 10 || f.End != want {
			t.Fatalf("interval %+v, want [10,%d)", f, want)
		}
	}
}

func TestCircuitBandwidthRoundsFlowsUp(t *testing.T) {
	rem := mustMatrix(t, [][]int64{{5}})
	c := NewCircuit(4)
	c.Establish([]int{0})
	var flows schedule.FlowSchedule
	sent := c.Transmit(rem, 0, 2, &flows)
	if sent != 5 {
		t.Fatalf("sent = %d, want 5", sent)
	}
	// 5 units at bw 4 occupy ⌈5/4⌉ = 2 ticks.
	if flows[0].End != 2 {
		t.Fatalf("interval end = %d, want 2", flows[0].End)
	}
}

func TestCircuitDownMaskSkipsCircuits(t *testing.T) {
	rem := mustMatrix(t, [][]int64{
		{3, 0},
		{0, 4},
	})
	c := NewCircuit(1)
	c.Establish([]int{0, 1})
	c.SetPortsDown([]bool{false, true})
	if got := c.MaxRemaining(rem); got != 3 {
		t.Fatalf("MaxRemaining with port 1 down = %d, want 3", got)
	}
	sent := c.Transmit(rem, 0, 10, nil)
	if sent != 3 {
		t.Fatalf("sent = %d, want 3 (circuit on down port must carry nothing)", sent)
	}
	if rem.At(1, 1) != 4 {
		t.Fatalf("down circuit drained demand: rem(1,1) = %d", rem.At(1, 1))
	}
}

func TestCircuitStaggeredStarts(t *testing.T) {
	rem := mustMatrix(t, [][]int64{
		{10, 0},
		{0, 10},
	})
	c := NewCircuit(1)
	// Circuit 0 carried over (ready at 0), circuit 1 reconfigures (ready at 3).
	c.EstablishStaggered([]int{0, 1}, []int64{0, 3})
	if end, live := c.DrainEnd(rem, 0); !live || end != 13 {
		t.Fatalf("DrainEnd = %d, %v, want 13 (circuit 1: ready at 3, 10 to send)", end, live)
	}
	var flows schedule.FlowSchedule
	sent := c.Transmit(rem, 0, 8, &flows)
	if sent != 8+5 {
		t.Fatalf("sent = %d, want 13", sent)
	}
	for _, f := range flows {
		wantStart := int64(0)
		if f.In == 1 {
			wantStart = 3
		}
		if f.Start != wantStart || f.End != 8 {
			t.Fatalf("interval %+v, want [%d,8)", f, wantStart)
		}
	}
}

func TestElectricalUnitRateMatchesBottleneck(t *testing.T) {
	m := mustMatrix(t, [][]int64{
		{3, 4},
		{0, 6},
	})
	el, err := NewElectrical(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := el.DrainTime(m), m.MaxRowColSum(); got != want {
		t.Fatalf("DrainTime = %d, want ρ = %d", got, want)
	}
	sent := el.Drain(m, el.DrainTime(m))
	if sent != 13 || !m.IsZero() {
		t.Fatalf("full-window drain: sent %d, residual %v", sent, m)
	}
}

func TestElectricalFractionalRate(t *testing.T) {
	m := mustMatrix(t, [][]int64{{10}})
	el, err := NewElectrical(100, 1000) // a tenth of a circuit lane
	if err != nil {
		t.Fatal(err)
	}
	if got := el.DrainTime(m); got != 100 {
		t.Fatalf("DrainTime = %d, want 100", got)
	}
	if sent := el.Drain(m, 50); sent != 5 || m.At(0, 0) != 5 {
		t.Fatalf("half-window drain: sent %d, residual %d", sent, m.At(0, 0))
	}
}

func TestElectricalDarkFabric(t *testing.T) {
	m := mustMatrix(t, [][]int64{{7}})
	el, err := NewElectrical(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := el.DrainTime(m); got != -1 {
		t.Fatalf("dark DrainTime = %d, want -1 (never)", got)
	}
	if sent := el.Drain(m, 1000); sent != 0 || m.At(0, 0) != 7 {
		t.Fatalf("dark fabric moved demand: sent %d, residual %d", sent, m.At(0, 0))
	}
	empty := mustMatrix(t, [][]int64{{0}})
	if got := el.DrainTime(empty); got != 0 {
		t.Fatalf("dark DrainTime of empty demand = %d, want 0", got)
	}
}

func TestNewElectricalRejectsBadRates(t *testing.T) {
	for _, tc := range [][2]int64{{-1, 1}, {1, 0}, {1, -5}, {-1, 0}} {
		if _, err := NewElectrical(tc[0], tc[1]); err == nil {
			t.Fatalf("NewElectrical(%v) accepted", tc)
		}
	}
}

func TestPermille(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		num  int64
	}{
		{0, 0}, {0.05, 50}, {0.1, 100}, {0.5, 500}, {1, 1000},
		{-0.5, 0}, {1.5, 1000}, {0.0004, 0}, {0.0006, 1},
	} {
		num, den := Permille(tc.frac)
		if num != tc.num || den != 1000 {
			t.Fatalf("Permille(%v) = %d/%d, want %d/1000", tc.frac, num, den, tc.num)
		}
	}
}

// TestElectricalConservation checks the fluid allocator's port-capacity
// invariant deterministically across many random windows; the fuzz target
// below extends it to adversarial inputs.
func TestElectricalConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					m.Set(i, j, rng.Int63n(1000))
				}
			}
		}
		num := rng.Int63n(1001)
		el, err := NewElectrical(num, 1000)
		if err != nil {
			t.Fatal(err)
		}
		w := rng.Int63n(5000)
		checkElectricalInvariants(t, el, m, w)
	}
}

// checkElectricalInvariants drains m for w ticks and asserts: residuals
// never go negative, accounting balances, and no port moves more than its
// w·num/den capacity share.
func checkElectricalInvariants(t *testing.T, el *Electrical, m *matrix.Matrix, w int64) {
	t.Helper()
	before := m.Clone()
	total := m.Total()
	sent := el.Drain(m, w)
	if got := m.Total(); got+sent != total {
		t.Fatalf("accounting: %d residual + %d sent != %d total", got, sent, total)
	}
	num, den := el.Rate()
	n := m.N()
	rowSent := make([]int64, n)
	colSent := make([]int64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := before.At(i, j) - m.At(i, j)
			if d < 0 || m.At(i, j) < 0 {
				t.Fatalf("negative residual or growth at (%d,%d): before %d after %d", i, j, before.At(i, j), m.At(i, j))
			}
			rowSent[i] += d
			colSent[j] += d
		}
	}
	if w <= 0 {
		if sent != 0 {
			t.Fatalf("sent %d in non-positive window %d", sent, w)
		}
		return
	}
	// A port's capacity over w ticks is w·num/den demand units; allow the
	// full-drain case only when the window covers DrainTime.
	full := before.IsZero() || (el.DrainTime(before) >= 0 && w >= el.DrainTime(before))
	for p := 0; p < n; p++ {
		for _, moved := range []int64{rowSent[p], colSent[p]} {
			if !full && moved*den > w*num {
				t.Fatalf("port %d moved %d over window %d at rate %d/%d", p, moved, w, num, den)
			}
		}
	}
}

// FuzzElectricalDrain fuzzes the fluid rate allocator, Drain: for any demand
// matrix, rate, and window it must leave no negative residual, balance its
// accounting, and respect per-port capacity.
func FuzzElectricalDrain(f *testing.F) {
	f.Add(int64(1), uint8(2), int64(100), int64(37), int64(500))
	f.Add(int64(42), uint8(5), int64(1), int64(0), int64(1))
	f.Add(int64(7), uint8(3), int64(1000), int64(1<<40), int64(1<<35))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, num, maxEntry, w int64) {
		n := 1 + int(nRaw%8)
		if num < 0 {
			num = -num
		}
		num %= 1001
		if maxEntry < 0 {
			maxEntry = -maxEntry
		}
		maxEntry = maxEntry%(1<<40) + 1
		rng := rand.New(rand.NewSource(seed))
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					m.Set(i, j, rng.Int63n(maxEntry))
				}
			}
		}
		el, err := NewElectrical(num, 1000)
		if err != nil {
			t.Fatal(err)
		}
		checkElectricalInvariants(t, el, m, w%(1<<41))
	})
}
