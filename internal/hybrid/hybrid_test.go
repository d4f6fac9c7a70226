package hybrid

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"reco/internal/matrix"
)

func mustMatrix(t *testing.T, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestSplit(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{500, 20},
		{0, 400},
	})
	elephants, mice := Split(d, 400)
	if elephants.At(0, 0) != 500 || elephants.At(1, 1) != 400 {
		t.Errorf("elephants wrong:\n%v", elephants)
	}
	if elephants.At(0, 1) != 0 {
		t.Error("mouse left in elephant half")
	}
	if mice.At(0, 1) != 20 || mice.Total() != 20 {
		t.Errorf("mice wrong:\n%v", mice)
	}
	// Split conserves demand.
	sum, err := matrix.Sum([]*matrix.Matrix{elephants, mice})
	if err != nil || !sum.Equal(d) {
		t.Error("split does not conserve demand")
	}
}

// TestSplitZeroThreshold locks the edge case the package comment promises:
// at threshold 0 nothing is strictly below the cutoff, so the elephant half
// is the whole coflow, the mice half is empty, and the input is untouched.
func TestSplitZeroThreshold(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{500, 20},
		{1, 0},
	})
	orig := d.Clone()
	elephants, mice := Split(d, 0)
	if !elephants.Equal(d) {
		t.Errorf("threshold 0 elephants differ from demand:\n%v", elephants)
	}
	if !mice.IsZero() {
		t.Errorf("threshold 0 produced mice:\n%v", mice)
	}
	if !d.Equal(orig) {
		t.Error("Split mutated its input")
	}
	// The returns are clones, not aliases.
	elephants.Set(0, 0, 7)
	if d.At(0, 0) != 500 {
		t.Error("elephant half aliases the input")
	}
}

func TestScheduleValidation(t *testing.T) {
	d := mustMatrix(t, [][]int64{{1}})
	for _, cfg := range []Config{
		{Delta: -1, Threshold: 0, PacketSlowdown: 1},
		{Delta: 1, Threshold: -1, PacketSlowdown: 1},
		{Delta: 1, Threshold: 0, PacketSlowdown: 0},
	} {
		if _, err := Schedule(context.Background(), d, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %+v accepted: %v", cfg, err)
		}
	}
}

func TestScheduleAllElephants(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{500, 0},
		{0, 450},
	})
	res, err := Schedule(context.Background(), d, Config{Delta: 100, Threshold: 400, PacketSlowdown: 10})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.PacketCCT != 0 || res.PacketDemand != 0 {
		t.Errorf("packet half should be empty: %+v", res)
	}
	if res.CCT != res.OCSCCT || res.OCSCCT == 0 {
		t.Errorf("CCT accounting wrong: %+v", res)
	}
}

func TestScheduleAllMice(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{30, 0},
		{0, 20},
	})
	res, err := Schedule(context.Background(), d, Config{Delta: 100, Threshold: 400, PacketSlowdown: 10})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.OCSCCT != 0 || res.OCSReconfigs != 0 {
		t.Errorf("OCS half should be empty: %+v", res)
	}
	// Disjoint pairs run in parallel on the packet switch: 30*10 = 300.
	if res.PacketCCT != 300 {
		t.Errorf("PacketCCT = %d, want 300", res.PacketCCT)
	}
}

func TestScheduleMixed(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{800, 50},
		{0, 700},
	})
	res, err := Schedule(context.Background(), d, Config{Delta: 100, Threshold: 400, PacketSlowdown: 10})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.OCSDemand != 1500 || res.PacketDemand != 50 {
		t.Errorf("demand split wrong: %+v", res)
	}
	if res.CCT < res.OCSCCT || res.CCT < res.PacketCCT {
		t.Errorf("CCT below a half: %+v", res)
	}
}

// TestThresholdTradeoff demonstrates the motivation for the c·δ threshold:
// sending mice to the OCS inflates reconfiguration counts, sending
// elephants to the packet switch inflates transmission time, and the c·δ
// cutoff avoids both.
func TestThresholdTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	d, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case rng.Float64() < 0.2:
				d.Set(i, j, 2000+rng.Int63n(2000)) // elephants
			case rng.Float64() < 0.3:
				d.Set(i, j, 1+rng.Int63n(50)) // mice
			}
		}
	}
	const delta, slowdown = 100, 10
	all2OCS, err := Schedule(context.Background(), d, Config{Delta: delta, Threshold: 0, PacketSlowdown: slowdown})
	if err != nil {
		t.Fatalf("threshold 0: %v", err)
	}
	split, err := Schedule(context.Background(), d, Config{Delta: delta, Threshold: 4 * delta, PacketSlowdown: slowdown})
	if err != nil {
		t.Fatalf("threshold 4d: %v", err)
	}
	if split.OCSReconfigs > all2OCS.OCSReconfigs {
		t.Errorf("splitting mice out increased reconfigurations: %d > %d",
			split.OCSReconfigs, all2OCS.OCSReconfigs)
	}
	if split.CCT > all2OCS.CCT {
		t.Errorf("c*delta threshold CCT %d worse than everything-on-OCS %d", split.CCT, all2OCS.CCT)
	}
}
