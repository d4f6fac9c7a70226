// Package workload produces and characterizes the coflow workloads driving
// the evaluation. The paper uses a Facebook Hive/MapReduce trace (526
// coflows on a 150-rack fabric) that is not redistributable, so this package
// provides two interchangeable sources:
//
//   - Generate, a seeded synthetic generator calibrated to the paper's
//     published workload statistics — the density mix of Table I, the
//     transmission-mode mix of Table II, heavy-tailed flow sizes with M2M
//     coflows carrying essentially all bytes, uniform mapper→reducer shuffle
//     split, and ±5% size perturbation; and
//   - ParseTrace, a reader for the public coflow-benchmark trace format, so
//     the real trace can be dropped in when available.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"reco/internal/matrix"
)

// Class is the paper's demand-matrix density category (Table I), measured
// over the full N×N fabric matrix.
type Class int

// Density classes with the paper's thresholds.
const (
	Sparse Class = iota + 1 // density ≤ 0.05
	Normal                  // 0.05 < density ≤ 0.5
	Dense                   // density > 0.5
)

// String returns the paper's name for the class.
func (c Class) String() string {
	switch c {
	case Sparse:
		return "sparse"
	case Normal:
		return "normal"
	case Dense:
		return "dense"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Mode is the coflow transmission mode (Table II).
type Mode int

// Transmission modes.
const (
	S2S Mode = iota + 1 // single ingress, single egress
	S2M                 // single ingress, multiple egress
	M2S                 // multiple ingress, single egress
	M2M                 // multiple ingress, multiple egress
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case S2S:
		return "S2S"
	case S2M:
		return "S2M"
	case M2S:
		return "M2S"
	case M2M:
		return "M2M"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Coflow is one scheduling unit: a demand matrix with a weight. All coflows
// arrive at time 0 (Sec. II-A).
type Coflow struct {
	ID     int
	Weight float64
	Demand *matrix.Matrix
}

// Classify returns the density class of d using the paper's thresholds on
// fabric-wide density (non-zero entries over N²).
func Classify(d *matrix.Matrix) Class {
	ds := d.Density()
	switch {
	case ds > 0.5:
		return Dense
	case ds > 0.05:
		return Normal
	default:
		return Sparse
	}
}

// ClassifyMode returns the transmission mode of d: how many distinct ingress
// and egress ports carry non-zero demand.
func ClassifyMode(d *matrix.Matrix) Mode {
	n := d.N()
	rows, cols := 0, 0
	for i := 0; i < n; i++ {
		rowHas := false
		for j := 0; j < n; j++ {
			if d.At(i, j) > 0 {
				rowHas = true
				break
			}
		}
		if rowHas {
			rows++
		}
	}
	for j := 0; j < n; j++ {
		colHas := false
		for i := 0; i < n; i++ {
			if d.At(i, j) > 0 {
				colHas = true
				break
			}
		}
		if colHas {
			cols++
		}
	}
	switch {
	case rows <= 1 && cols <= 1:
		return S2S
	case rows <= 1:
		return S2M
	case cols <= 1:
		return M2S
	default:
		return M2M
	}
}

// ErrBadConfig reports an unusable generator configuration.
var ErrBadConfig = errors.New("workload: invalid configuration")

// GenConfig parameterizes the synthetic Facebook-like generator. Zero-value
// fields take the documented defaults.
type GenConfig struct {
	// N is the fabric port count. Default 150 (the trace's rack count).
	N int
	// NumCoflows is the number of coflows. Default 526.
	NumCoflows int
	// Seed makes generation reproducible.
	Seed int64
	// MinDemand floors every non-zero flow (the paper's elephant-only
	// assumption d ≥ c·δ). Default 400 ticks (5 MB at 100 Gb/s with 1 tick
	// = 1 µs).
	MinDemand int64
	// MeanDemand scales typical flow sizes. Default 800 ticks (10 MB).
	MeanDemand int64
	// SizeSpread is how many decades the per-coflow shuffle scale spans
	// above MinDemand (production traces span KBs to TBs). Default 2.
	SizeSpread float64
}

func (cfg *GenConfig) applyDefaults() {
	if cfg.N == 0 {
		cfg.N = 150
	}
	if cfg.NumCoflows == 0 {
		cfg.NumCoflows = 526
	}
	if cfg.MinDemand == 0 {
		cfg.MinDemand = 400
	}
	if cfg.MeanDemand == 0 {
		cfg.MeanDemand = 800
	}
	if cfg.SizeSpread == 0 {
		cfg.SizeSpread = 2
	}
}

// perturb is the ± relative perturbation of every flow size around its
// mapper's share.
const perturb = 0.05

// Paper workload marginals: Table II transmission-mode mix and Table I
// density mix. Dense and normal coflows are necessarily M2M (a single-port
// coflow cannot cover more than N of the N² fabric entries).
const (
	fracS2S    = 0.2338
	fracS2M    = 0.0989
	fracM2S    = 0.4011
	fracDense  = 0.0856
	fracNormal = 0.0513
)

// Generate produces a reproducible synthetic workload matching the paper's
// published marginals. See the package comment for the calibration targets.
// It is shorthand for GenerateWith with a generator seeded from cfg.Seed.
func Generate(cfg GenConfig) ([]Coflow, error) {
	return GenerateWith(rand.New(rand.NewSource(cfg.Seed)), cfg)
}

// GenerateWith is Generate with an explicit random source: the caller owns
// the generator and cfg.Seed is ignored. Experiment trial sweeps use this
// to thread a per-trial generator (derived from the experiment seed and the
// trial index) instead of sharing one *rand.Rand across trials — sharing
// would make the drawn workload depend on trial execution order, and under
// a parallel sweep it would be a data race.
//
// The rng must not be used concurrently by the caller while GenerateWith
// runs.
func GenerateWith(rng *rand.Rand, cfg GenConfig) ([]Coflow, error) {
	cfg.applyDefaults()
	out := make([]Coflow, 0, max(cfg.NumCoflows, 0))
	err := GenerateEach(rng, cfg, func(c Coflow) bool {
		out = append(out, c)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GenerateEach is GenerateWith handing each coflow to yield as soon as it
// is drawn, in ID order, until yield returns false. The class and mode of
// every coflow are fixed and shuffled before the first is drawn, and each
// is then drawn from rng in turn, so the coflows yield sees are the first
// ones GenerateWith returns for the same rng and cfg; a caller that stops
// early skips drawing the rest.
func GenerateEach(rng *rand.Rand, cfg GenConfig, yield func(Coflow) bool) error {
	cfg.applyDefaults()
	if cfg.N < 4 {
		return fmt.Errorf("%w: N=%d (need at least 4)", ErrBadConfig, cfg.N)
	}
	if cfg.NumCoflows < 1 {
		return fmt.Errorf("%w: NumCoflows=%d", ErrBadConfig, cfg.NumCoflows)
	}
	if cfg.MinDemand < 1 || cfg.MeanDemand < cfg.MinDemand {
		return fmt.Errorf("%w: MinDemand=%d MeanDemand=%d", ErrBadConfig, cfg.MinDemand, cfg.MeanDemand)
	}
	k := cfg.NumCoflows

	nS2S := int(fracS2S * float64(k))
	nS2M := int(fracS2M * float64(k))
	nM2S := int(fracM2S * float64(k))
	nM2M := k - nS2S - nS2M - nM2S
	nDense := int(fracDense * float64(k))
	nNormal := int(fracNormal * float64(k))
	// Dense and normal coflows come out of the M2M budget.
	if nDense+nNormal > nM2M {
		nDense = nM2M * 2 / 3
		nNormal = nM2M - nDense
	}

	type spec struct {
		mode  Mode
		class Class
	}
	specs := make([]spec, 0, k)
	for i := 0; i < nS2S; i++ {
		specs = append(specs, spec{S2S, Sparse})
	}
	for i := 0; i < nS2M; i++ {
		specs = append(specs, spec{S2M, Sparse})
	}
	for i := 0; i < nM2S; i++ {
		specs = append(specs, spec{M2S, Sparse})
	}
	for i := 0; i < nDense; i++ {
		specs = append(specs, spec{M2M, Dense})
	}
	for i := 0; i < nNormal; i++ {
		specs = append(specs, spec{M2M, Normal})
	}
	for len(specs) < k {
		specs = append(specs, spec{M2M, Sparse})
	}
	// Shuffle so coflow IDs do not encode the class.
	rng.Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })

	for id, sp := range specs {
		d, err := genMatrix(rng, cfg, sp.mode, sp.class)
		if err != nil {
			return err
		}
		if !yield(Coflow{ID: id, Weight: 1, Demand: d}) {
			return nil
		}
	}
	return nil
}

// genMatrix builds one demand matrix of the requested mode and density
// class, emulating a MapReduce shuffle: each reducer's total shuffle data is
// split uniformly across the mappers (Sec. V-A), then perturbed.
func genMatrix(rng *rand.Rand, cfg GenConfig, mode Mode, class Class) (*matrix.Matrix, error) {
	n := cfg.N
	var mappers, reducers []int
	fill := 1.0

	switch mode {
	case S2S:
		mappers = pickPorts(rng, n, 1)
		reducers = pickPorts(rng, n, 1)
	case S2M:
		mappers = pickPorts(rng, n, 1)
		reducers = pickPorts(rng, n, 2+rng.Intn(maxInt(2, n/5)))
	case M2S:
		mappers = pickPorts(rng, n, 2+rng.Intn(maxInt(2, n/5)))
		reducers = pickPorts(rng, n, 1)
	case M2M:
		switch class {
		case Dense:
			// Full fill over a wide mapper×reducer rectangle: coverage
			// beyond half the fabric. Byte dominance of dense shuffles
			// comes from their Θ(N²) flow count, not from larger flows.
			lo := (3*n + 3) / 4
			mappers = pickPorts(rng, n, lo+rng.Intn(n-lo+1))
			reducers = pickPorts(rng, n, lo+rng.Intn(n-lo+1))
		case Normal:
			// Coverage between 5% and 50% of the fabric.
			lo, hi := isqrtFloat(0.09*float64(n*n)), isqrtFloat(0.45*float64(n*n))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > n {
				hi = n
			}
			mappers = pickPorts(rng, n, lo+rng.Intn(hi-lo))
			reducers = pickPorts(rng, n, lo+rng.Intn(hi-lo))
		default:
			// Small rectangles stay well under 5% coverage.
			w := maxInt(2, n/8)
			mappers = pickPorts(rng, n, 2+rng.Intn(w))
			reducers = pickPorts(rng, n, 2+rng.Intn(w))
			fill = 0.8
		}
	default:
		return nil, fmt.Errorf("%w: unknown mode %v", ErrBadConfig, mode)
	}

	d, err := matrix.New(n)
	if err != nil {
		return nil, err
	}
	m := len(mappers)
	// One shuffle scale per coflow, spread over several orders of magnitude
	// across coflows (production shuffles span KBs to TBs). Hash
	// partitioning spreads a job's shuffle data nearly evenly over its
	// reducers, so within a coflow the per-reducer totals share this scale
	// with only moderate skew, and the per-mapper split is uniform
	// (Sec. V-A). This near-uniformity inside a coflow is what start-time
	// regularization exploits; the cross-coflow skew is what separates the
	// multi-coflow baselines.
	// The exponent is biased toward zero (u² of a uniform draw): most
	// coflows sit near MeanDemand while a heavy tail reaches SizeSpread
	// decades above it — the mostly-mice-few-giants shape of production
	// shuffle traces.
	u := rng.Float64()
	coflowScale := float64(cfg.MeanDemand) * math.Pow(10, u*u*cfg.SizeSpread)
	for _, j := range reducers {
		perMapper := coflowScale * (0.8 + 0.4*rng.Float64())
		for _, i := range mappers {
			if fill < 1 && rng.Float64() > fill && m > 1 {
				continue
			}
			v := int64(perMapper * (1 + (rng.Float64()*2-1)*perturb))
			if v < cfg.MinDemand {
				v = cfg.MinDemand
			}
			d.Set(i, j, v)
		}
	}
	// Guarantee non-empty matrices even under adversarial fill draws.
	if d.IsZero() {
		d.Set(mappers[0], reducers[0], cfg.MinDemand)
	}
	return d, nil
}

func pickPorts(rng *rand.Rand, n, count int) []int {
	if count > n {
		count = n
	}
	perm := rng.Perm(n)
	return perm[:count]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func isqrtFloat(v float64) int {
	r := 0
	for (r+1)*(r+1) <= int(v) {
		r++
	}
	return maxInt(r, 1)
}
