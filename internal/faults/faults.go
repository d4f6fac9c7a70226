// Package faults models the ways a deployed optical circuit switch deviates
// from the paper's perfect-switch assumptions (Sec. V): ports fail and come
// back, circuit establishments occasionally do not take, and the
// reconfiguration delay δ is not a constant. A Schedule is a fully
// deterministic description of those deviations for one simulation run —
// every draw is pure arithmetic on (Seed, stream, index) using the same
// SplitMix64 derivation as the parallel trial engine (internal/parallel), so
// the same schedule replayed against the same controller produces the same
// event log bit for bit, regardless of worker count or wall-clock.
//
// The simulator in internal/sim consumes a Schedule during RunFaults;
// Generate builds one from a seeded fault-rate configuration for the
// degraded-CCT experiments.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"reco/internal/parallel"
)

// ErrBadSchedule reports an inconsistent fault schedule or generator
// configuration.
var ErrBadSchedule = errors.New("faults: invalid schedule")

// Stream salts separating the per-establishment draw streams from each other
// and from the per-port event streams. They are arbitrary but fixed: changing
// them changes every generated schedule.
const (
	streamSetup  int64 = 1
	streamJitter int64 = 2
	streamPort   int64 = 3
)

// PortEvent is one port state transition: at Tick, Port goes down (Down) or
// comes back up (!Down). A port that is down carries no traffic on any
// circuit touching it, as ingress or egress.
type PortEvent struct {
	Tick int64
	Port int
	Down bool
}

// Schedule is a deterministic fault plan for one simulation run. The zero
// value (and nil) is the empty schedule: no faults of any kind.
type Schedule struct {
	// PortEvents are the port up/down transitions, sorted by Tick then Port.
	PortEvents []PortEvent
	// SetupFailProb is the probability that a circuit establishment fails:
	// the reconfiguration delay is spent but no circuits are installed.
	// Must lie in [0, 1); a probability of 1 could never make progress.
	SetupFailProb float64
	// JitterBound bounds the per-establishment reconfiguration-delay jitter:
	// establishment k takes delta + j ticks with j uniform in
	// [-JitterBound, +JitterBound] (clamped so the delay never goes
	// negative). Zero disables jitter.
	JitterBound int64
	// Seed drives the per-establishment setup-failure and jitter draws.
	Seed int64
}

// Empty reports whether s injects no faults at all, in which case the
// simulator's fault machinery is bypassed entirely.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.PortEvents) == 0 && s.SetupFailProb == 0 && s.JitterBound == 0)
}

// Validate checks s against an n-port fabric: ports in range, events sorted,
// probability in [0, 1), non-negative jitter bound.
func (s *Schedule) Validate(n int) error {
	if s == nil {
		return nil
	}
	if !(0 <= s.SetupFailProb && s.SetupFailProb < 1) { // negated: NaN fails every comparison
		return fmt.Errorf("%w: setup-failure probability %v outside [0,1)", ErrBadSchedule, s.SetupFailProb)
	}
	if s.JitterBound < 0 {
		return fmt.Errorf("%w: negative jitter bound %d", ErrBadSchedule, s.JitterBound)
	}
	for i, ev := range s.PortEvents {
		if ev.Port < 0 || ev.Port >= n {
			return fmt.Errorf("%w: event %d on port %d outside fabric of %d", ErrBadSchedule, i, ev.Port, n)
		}
		if ev.Tick < 0 {
			return fmt.Errorf("%w: event %d at negative tick %d", ErrBadSchedule, i, ev.Tick)
		}
		if i > 0 && ev.Tick < s.PortEvents[i-1].Tick {
			return fmt.Errorf("%w: events not sorted at index %d", ErrBadSchedule, i)
		}
	}
	return nil
}

// unit maps a derived seed onto [0, 1) with 53 bits of precision.
func unit(seed int64) float64 {
	return float64(uint64(seed)>>11) / (1 << 53)
}

// SetupFails reports whether establishment k fails to install its circuits.
// The draw is pure arithmetic on (Seed, k): it does not depend on what
// happened earlier in the run.
func (s *Schedule) SetupFails(k int) bool {
	if s == nil || s.SetupFailProb <= 0 {
		return false
	}
	return unit(parallel.Seed(s.Seed, streamSetup, int64(k))) < s.SetupFailProb
}

// Jitter returns establishment k's reconfiguration-delay jitter, uniform in
// [-JitterBound, +JitterBound], derived purely from (Seed, k).
func (s *Schedule) Jitter(k int) int64 {
	if s == nil || s.JitterBound <= 0 {
		return 0
	}
	span := 2*s.JitterBound + 1
	return int64(uint64(parallel.Seed(s.Seed, streamJitter, int64(k)))%uint64(span)) - s.JitterBound
}

// ApplyThrough applies every port event with Tick <= t, starting from
// *cursor, onto the down-state vector, advancing the cursor. It returns the
// range [from, *cursor) of events applied so callers can record them. down
// must have one entry per port.
func (s *Schedule) ApplyThrough(cursor *int, down []bool, t int64) (from, to int) {
	if s == nil {
		return 0, 0
	}
	from = *cursor
	for *cursor < len(s.PortEvents) && s.PortEvents[*cursor].Tick <= t {
		ev := s.PortEvents[*cursor]
		down[ev.Port] = ev.Down
		*cursor++
	}
	return from, *cursor
}

// NextEventAfter returns the tick of the first port event strictly after t,
// or -1 when no more events are scheduled.
func (s *Schedule) NextEventAfter(t int64) int64 {
	if s == nil {
		return -1
	}
	i := sort.Search(len(s.PortEvents), func(i int) bool { return s.PortEvents[i].Tick > t })
	if i == len(s.PortEvents) {
		return -1
	}
	return s.PortEvents[i].Tick
}

// GenConfig parameterizes Generate.
type GenConfig struct {
	// N is the fabric port count.
	N int
	// Seed drives every draw; equal configs generate equal schedules.
	Seed int64
	// Horizon is the window [0, Horizon) in which port failures strike.
	// Required when PortFailRate > 0.
	Horizon int64
	// PortFailRate is each port's probability of failing once within the
	// horizon, in [0, 1].
	PortFailRate float64
	// RepairAfter is how long a failed port stays down before coming back.
	// Zero means failed ports never recover; a recovery tick past MaxInt64
	// is refused.
	RepairAfter int64
	// SetupFailProb and JitterBound carry into the schedule unchanged.
	SetupFailProb float64
	JitterBound   int64
}

// Generate builds a deterministic fault schedule from cfg: each port draws
// its fate from one math/rand source re-seeded for it with
// parallel.Seed(cfg.Seed, streamPort, port), so the same config always
// yields the same schedule and a port's fate does not depend on the fabric
// size.
func Generate(cfg GenConfig) (*Schedule, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("%w: fabric size %d", ErrBadSchedule, cfg.N)
	}
	if !(0 <= cfg.PortFailRate && cfg.PortFailRate <= 1) { // negated: NaN fails every comparison
		return nil, fmt.Errorf("%w: port-failure rate %v outside [0,1]", ErrBadSchedule, cfg.PortFailRate)
	}
	if cfg.PortFailRate > 0 && cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: port failures need a positive horizon, got %d", ErrBadSchedule, cfg.Horizon)
	}
	if cfg.RepairAfter < 0 {
		return nil, fmt.Errorf("%w: negative repair time %d", ErrBadSchedule, cfg.RepairAfter)
	}
	s := &Schedule{
		SetupFailProb: cfg.SetupFailProb,
		JitterBound:   cfg.JitterBound,
		Seed:          cfg.Seed,
	}
	if err := s.Validate(cfg.N); err != nil {
		return nil, err
	}
	// At a zero rate no port can fail: seeding a stream per port to learn so
	// would only cost time. Every port's stream is the one parallel.Rand
	// would return for it, drawn from one source re-seeded per port rather
	// than a fresh 607-word source each.
	var rng *rand.Rand
	for p := 0; p < cfg.N && cfg.PortFailRate > 0; p++ {
		if seed := parallel.Seed(cfg.Seed, streamPort, int64(p)); rng == nil {
			rng = rand.New(rand.NewSource(seed))
		} else {
			rng.Seed(seed)
		}
		if rng.Float64() >= cfg.PortFailRate {
			continue
		}
		fail := rng.Int63n(cfg.Horizon)
		s.PortEvents = append(s.PortEvents, PortEvent{Tick: fail, Port: p, Down: true})
		if cfg.RepairAfter > 0 {
			if fail > math.MaxInt64-cfg.RepairAfter {
				return nil, fmt.Errorf("%w: port %d fails at tick %d and its repair %d ticks later overflows",
					ErrBadSchedule, p, fail, cfg.RepairAfter)
			}
			s.PortEvents = append(s.PortEvents, PortEvent{Tick: fail + cfg.RepairAfter, Port: p, Down: false})
		}
	}
	sort.Slice(s.PortEvents, func(a, b int) bool {
		if s.PortEvents[a].Tick != s.PortEvents[b].Tick {
			return s.PortEvents[a].Tick < s.PortEvents[b].Tick
		}
		return s.PortEvents[a].Port < s.PortEvents[b].Port
	})
	return s, nil
}
