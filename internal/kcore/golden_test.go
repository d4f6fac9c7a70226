package kcore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reco/internal/core"
	"reco/internal/faults"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/schedule"
	"reco/internal/sim"
	"reco/internal/solstice"
)

// TestExecutorGolden pins what every executor and simulator entry point
// returns, field by field, for a seeded corpus: the SHA-256 of a canonical
// text dump per entry point. The digests were taken before the executors
// were folded onto one event loop and are not to be re-pinned by a change
// that claims to leave results alone. A partial simulator result (one
// returned next to an error) is dumped without its CCT, which such a result
// does not define.
func TestExecutorGolden(t *testing.T) {
	want := map[string]string{
		"allstop":    "5b57e1d8677f94f9aa7486cf6b09ab77468f7c63b8d9425f2f0ddfa245c6f1b8",
		"rate3":      "de712c5acdf4059d10ab6a478ad3cd5e3d0fe0b66d99839797dcef1eedba0dba",
		"notallstop": "e42f44c7a1df77fad45b7d073ac6939daf08c0e3512b3c2e73ccccbd2bbc1925",
		"incomplete": "c5f08bc61f2a392262a15b91499e05b2aebb41e1c6a7bb77543421d859ce5197",
		"sequential": "c6374a45893d630b1d8bef7b85850e8c8a3e4550f0fdc1e0d63bf97841024a53",
		"exec-k":     "4552fbb892fd591796988bb3f3f94d3e7a5a861a2d9c2a45d1a5f2c510852dea",
		"faults":     "d758229f92257319bb9a46605317a6d0153c66fc77b701ca62a3032ffcd761b2",
		"recover-k":  "994882e39253c3329db2b96b51f802ff9f7da37749975aeb7e122f4a0a9ac6cb",
	}
	got := map[string]*strings.Builder{}
	section := func(name string) *strings.Builder {
		if got[name] == nil {
			got[name] = &strings.Builder{}
		}
		return got[name]
	}

	rng := rand.New(rand.NewSource(2424))
	type entry struct {
		d     *matrix.Matrix
		cs    ocs.CircuitSchedule
		delta int64
	}
	var corpus []entry
	for k := 0; k < 12; k++ {
		n := 3 + k%7
		e := entry{d: goldenDemand(rng, n, 0.3+0.05*float64(k%10)), delta: int64(rng.Intn(80))}
		var err error
		if k%2 == 0 {
			e.cs, err = core.RecoSin(e.d, e.delta)
		} else {
			e.cs, err = solstice.Schedule(context.Background(), e.d)
		}
		if err != nil {
			t.Fatalf("corpus %d: %v", k, err)
		}
		corpus = append(corpus, e)
	}

	for k, e := range corpus {
		res, err := ocs.ExecAllStop(e.d, e.cs, e.delta)
		dumpExec(section("allstop"), k, res, err)
		res, err = ocs.Core{Delta: e.delta, Bandwidth: 3, Flows: true}.Exec(e.d, e.cs)
		dumpExec(section("rate3"), k, res, err)
		res, err = ocs.ExecNotAllStop(e.d, e.cs, e.delta)
		dumpExec(section("notallstop"), k, res, err)

		short := e.cs[:len(e.cs)/2]
		res, err = ocs.ExecAllStop(e.d, short, e.delta)
		dumpExec(section("incomplete"), k, res, err)
		res, err = ocs.ExecNotAllStop(e.d, short, e.delta)
		dumpExec(section("incomplete"), k, res, err)
	}

	// Batches of equal dimension for the sequential and K-core executors.
	const bn, bdelta = 8, 30
	batch := make([]*matrix.Matrix, 4)
	plans := make([]ocs.CircuitSchedule, len(batch))
	for k := range batch {
		batch[k] = goldenDemand(rng, bn, 0.5)
		var err error
		if plans[k], err = core.RecoSin(batch[k], bdelta); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 3; trial++ {
		seq, err := ocs.ExecSequential(batch, plans, rng.Perm(len(batch)), bdelta, true)
		dumpSeq(section("sequential"), trial, seq, err)
	}

	uniform := func(k int) Topology {
		topo, err := Uniform(k, bdelta)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	mixed := Topology{Cores: []Core{
		{Bandwidth: 1, Delta: bdelta}, {Bandwidth: 2, Delta: 2 * bdelta}, {Bandwidth: 3, Delta: bdelta / 2},
	}}
	for ti, topo := range []Topology{uniform(1), uniform(3), mixed} {
		for _, strat := range []Strategy{Greedy, RoundRobin} {
			res, err := ScheduleBatch(context.Background(), batch, topo, strat, true)
			if err != nil {
				t.Fatalf("topology %d %v: %v", ti, strat, err)
			}
			dumpSeq(section("exec-k"), ti, res.Seq, nil)
			for k := range batch {
				kr, err := goldenExecK(topo, res.Splits[k], res.Plans[k])
				dumpExecK(section("exec-k"), k, kr, err)
			}
		}
	}

	for k, e := range corpus {
		clean, err := ocs.ExecAllStop(e.d, e.cs, e.delta)
		if err != nil {
			t.Fatalf("corpus %d: %v", k, err)
		}
		n := e.d.N()
		gen := func(cfg faults.GenConfig) *faults.Schedule {
			cfg.N, cfg.Seed, cfg.Horizon = n, int64(100+k), max(clean.CCT, 1)
			fs, err := faults.Generate(cfg)
			if err != nil {
				t.Fatalf("corpus %d: %v", k, err)
			}
			return fs
		}
		schedules := []*faults.Schedule{
			nil,
			{Seed: 99}, // empty: must behave as nil
			gen(faults.GenConfig{PortFailRate: 0.4, RepairAfter: max(clean.CCT/2, 1)}),
			gen(faults.GenConfig{PortFailRate: 0.3}),
			gen(faults.GenConfig{SetupFailProb: 0.2}),
			gen(faults.GenConfig{JitterBound: e.delta/2 + 1}),
			gen(faults.GenConfig{PortFailRate: 0.4, RepairAfter: max(clean.CCT/3, 1), SetupFailProb: 0.15, JitterBound: 3}),
		}
		for si, fs := range schedules {
			w := section("faults")
			for _, c := range goldenControllers(e.d, e.cs, e.delta, fs) {
				res, err := c.run()
				fmt.Fprintf(w, "%d/%d/%s ", k, si, c.name)
				dumpSim(w, res, err)
			}
		}
	}

	split, err := SplitGreedy(batch[0], uniform(3))
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]ocs.CircuitSchedule, len(split))
	for c := range split {
		if shares[c], err = core.RecoSin(split[c], bdelta); err != nil {
			t.Fatal(err)
		}
	}
	genK := func(cfg faults.KGenConfig) *faults.KSchedule {
		cfg.N, cfg.K, cfg.Horizon = bn, 3, 400
		kfs, err := faults.GenerateK(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return kfs
	}
	death := func(cores ...int) *faults.KSchedule {
		kfs := &faults.KSchedule{}
		for _, c := range cores {
			kfs.CoreEvents = append(kfs.CoreEvents, faults.CoreEvent{Tick: bdelta + 5, Core: c, Down: true})
		}
		return kfs
	}
	for ki, kfs := range []*faults.KSchedule{
		nil,
		death(1),
		death(0, 1, 2),
		genK(faults.KGenConfig{Seed: 11, CoreFailRate: 0.5}),
		genK(faults.KGenConfig{Seed: 12, CoreFailRate: 0.5, PortFailRate: 0.3, RepairAfter: 90, SetupFailProb: 0.1, JitterBound: 2}),
		genK(faults.KGenConfig{Seed: 13, PortFailRate: 0.4, RepairAfter: 60, JitterBound: 4}),
	} {
		kr, err := goldenRecoverK(uniform(3), split, shares, kfs)
		dumpRecoverK(section("recover-k"), ki, kr, err)
	}

	for name, hexWant := range want {
		sum := sha256.Sum256([]byte(got[name].String()))
		if hexGot := hex.EncodeToString(sum[:]); hexGot != hexWant {
			t.Errorf("%s: digest %s, want %s (%d bytes dumped)", name, hexGot, hexWant, got[name].Len())
		}
	}
}

// The three functions below, the field names in the dump functions and the
// package SplitGreedy is called from are the only parts of this file that
// changed when the executors were folded onto one loop.

func goldenExecK(topo Topology, split []*matrix.Matrix, plans []ocs.CircuitSchedule) (KResult, error) {
	return Exec(topo, split, plans)
}

func goldenRecoverK(topo Topology, split []*matrix.Matrix, plans []ocs.CircuitSchedule, kfs *faults.KSchedule) (*KResult, error) {
	return RunRecover(topo, split, plans, kfs)
}

type goldenController struct {
	name string
	run  func() (*ocs.Result, error)
}

func goldenControllers(d *matrix.Matrix, cs ocs.CircuitSchedule, delta int64, fs *faults.Schedule) []goldenController {
	with := func(name string, mk func() ocs.Controller) goldenController {
		return goldenController{name, func() (*ocs.Result, error) { return sim.RunFaults(d, mk(), delta, fs) }}
	}
	return []goldenController{
		with("replay", func() ocs.Controller { return sim.NewReplay(cs) }),
		with("replay-loop", func() ocs.Controller { return sim.NewReplayLoop(cs) }),
		with("recover", func() ocs.Controller { return sim.NewRecover(delta) }),
		{"predictive", func() (*ocs.Result, error) {
			replay, err := sim.RunFaults(d, sim.NewReplayLoop(cs), delta, fs)
			if err != nil {
				replay = nil
			}
			return sim.RunPredictive(ocs.Core{Delta: delta, Bandwidth: 1, Faults: fs, Flows: true, Log: true}, d, replay)
		}},
		with("bottleneck", func() ocs.Controller { return sim.GreedyBottleneck{} }),
		with("maxweight", func() ocs.Controller { return sim.GreedyMaxWeight{Slot: 25} }),
	}
}

func goldenDemand(rng *rand.Rand, n int, fill float64) *matrix.Matrix {
	m, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				m.Set(i, j, 1+rng.Int63n(400))
			}
		}
	}
	if m.IsZero() {
		m.Set(0, n-1, 7)
	}
	return m
}

func errClass(err error) string {
	for _, c := range []struct {
		is   error
		name string
	}{
		{sim.ErrStalled, "stalled"}, {ocs.ErrUnservable, "unservable"}, {ocs.ErrNoProgress, "no-progress"},
		{sim.ErrController, "controller"}, {ocs.ErrIncomplete, "incomplete"}, {ocs.ErrInvalidAssignment, "invalid"},
	} {
		if errors.Is(err, c.is) {
			return c.name
		}
	}
	if err != nil {
		return "error"
	}
	return "ok"
}

func dumpFlows(w *strings.Builder, flows schedule.FlowSchedule) {
	fmt.Fprintf(w, " flows=%d[", len(flows))
	for _, f := range flows {
		fmt.Fprintf(w, "%d-%d:%d>%d#%d ", f.Start, f.End, f.In, f.Out, f.Coflow)
	}
	w.WriteString("]")
}

func dumpExec(w *strings.Builder, k int, r ocs.Result, err error) {
	fmt.Fprintf(w, "%d %s cct=%d reconfigs=%d conf=%d trans=%d", k, errClass(err), r.CCT, r.Reconfigs, r.ConfTime, r.TransTime)
	dumpFlows(w, r.Flows)
	w.WriteString("\n")
}

func dumpSeq(w *strings.Builder, k int, r ocs.SeqResult, err error) {
	fmt.Fprintf(w, "%d %s ccts=%v reconfigs=%d conf=%d trans=%d", k, errClass(err), r.CCTs, r.Reconfigs, r.ConfTime, r.TransTime)
	dumpFlows(w, r.Flows)
	w.WriteString("\n")
}

func dumpExecK(w *strings.Builder, k int, kr KResult, err error) {
	fmt.Fprintf(w, "%d %s cct=%d reconfigs=%d conf=%d trans=%d", k, errClass(err), kr.CCT, kr.Reconfigs, kr.ConfTime, kr.TransTime)
	dumpFlows(w, kr.Flows)
	w.WriteString("\n")
	for c, r := range kr.PerCore {
		dumpExec(w, c, r, nil)
	}
}

// dumpSim writes one simulator result; a nil result prints as such.
func dumpSim(w *strings.Builder, r *ocs.Result, err error) {
	w.WriteString(errClass(err))
	if r == nil {
		w.WriteString(" nil\n")
		return
	}
	if err == nil {
		fmt.Fprintf(w, " cct=%d", r.CCT)
	}
	fmt.Fprintf(w, " est=%d conf=%d setupfail=%d", r.Reconfigs, r.ConfTime, r.SetupFailures)
	dumpFlows(w, r.Flows)
	fmt.Fprintf(w, " log=%d[", len(r.Log))
	for _, tr := range r.Log {
		fmt.Fprintf(w, "%d/%d/%d%v", tr.Start, tr.Up, tr.Down, tr.Perm)
		if tr.SetupFailed {
			w.WriteString("F")
		}
		if tr.Interrupted {
			w.WriteString("I")
		}
		w.WriteString(" ")
	}
	fmt.Fprintf(w, "] faults=%d[", len(r.Faults))
	for _, f := range r.Faults {
		fmt.Fprintf(w, "%d:%s:p%d:e%d:d%d ", f.Tick, f.Kind, f.Port, f.Establishment, f.Delta)
	}
	w.WriteString("]\n")
}

func dumpRecoverK(w *strings.Builder, k int, kr *KResult, err error) {
	fmt.Fprintf(w, "%d %s", k, errClass(err))
	if kr == nil {
		w.WriteString(" nil\n")
		return
	}
	fmt.Fprintf(w, " cct=%d est=%d conf=%d setupfail=%d dead=%v replanned=%d", kr.CCT, kr.Reconfigs, kr.ConfTime, kr.SetupFailures, kr.DeadCores, kr.ReplannedTicks)
	dumpFlows(w, kr.Flows)
	w.WriteString("\n")
	for c, r := range kr.PerCore {
		fmt.Fprintf(w, " core %d ", c)
		dumpSim(w, &r, nil)
	}
}
