// Package fabric models the two transmission substrates a coflow's demand
// can drain through. Each one takes a residual demand matrix and a time
// window, moves as much demand as its capacity model allows and reports the
// amount sent. The two cover every execution path in this repository:
//
//   - Circuit: an N×N optical circuit switch carrying one established
//     (partial) matching at bw demand units per tick per circuit. The event
//     loop of one switching core (ocs.Core.Run, behind every ocs executor,
//     every sim run and each core of a K-core fabric) is its only caller
//     besides the hybrid model; a live port-down mask and per-circuit ready
//     times cover faults and the not-all-stop carry-over.
//   - Electrical: an always-on packet fabric serving the whole matrix
//     fluidly, every flow sharing its ports fractionally (the MADD/Varys
//     allocation) at a rational fraction num/den of a circuit lane's rate.
//     packet.FluidCCTs is Electrical at num = den = 1; the rate-based
//     hybrid model (internal/hybrid.ScheduleFluid) runs an Electrical
//     fabric alongside a Circuit fabric on one clock.
//
// The arithmetic here is deliberately byte-identical to the loops it
// replaced: every executor refactored onto this package is locked by
// differential tests against the committed results/ CSVs.
package fabric

import (
	"fmt"
	"math/bits"

	"reco/internal/matrix"
	"reco/internal/schedule"
)

// Circuit is an optical circuit fabric: it carries the currently
// established partial matching, each circuit moving bw demand units per
// tick, and stops a circuit as soon as its pair's demand is drained (the
// paper's Fig. 2 early-stop semantics). Ports marked down carry nothing.
type Circuit struct {
	bw    int64
	perm  []int
	ready []int64
	down  []bool
}

// NewCircuit returns a circuit fabric whose circuits move bw demand units
// per tick; its port count is that of the matchings it is given. bw = 1 is
// the paper's unit-bandwidth switch.
func NewCircuit(bw int64) *Circuit {
	return &Circuit{bw: bw}
}

// Establish installs perm (Perm[i] = egress for ingress i, -1 idle) as the
// current matching; every circuit transmits from the start of the next
// Transmit window. The caller validates perm (ocs.Assignment.Validate).
func (c *Circuit) Establish(perm []int) {
	c.perm = perm
	c.ready = nil
}

// EstablishStaggered installs perm with a per-circuit ready time: the
// circuit of ingress i begins transmitting at ready[i] rather than at the
// window start. This is the not-all-stop model's carry-over semantics, where
// unchanged circuits keep transmitting through a reconfiguration. The slice
// is aliased until the next establishment.
func (c *Circuit) EstablishStaggered(perm []int, ready []int64) {
	c.perm = perm
	c.ready = ready
}

// SetPortsDown installs a live port-fault mask: circuits touching a down
// port carry nothing and do not extend windows. The slice is aliased, so a
// simulator can mutate it between windows; nil means all ports up.
func (c *Circuit) SetPortsDown(down []bool) { c.down = down }

// MaxRemaining returns the longest remaining demand among the established
// circuits whose ports are up — the establishment's natural drain time in
// units of bw·ticks.
func (c *Circuit) MaxRemaining(rem *matrix.Matrix) int64 {
	var max int64
	for i, j := range c.perm {
		if j == -1 {
			continue
		}
		if c.down != nil && (c.down[i] || c.down[j]) {
			continue
		}
		if r := rem.At(i, j); r > max {
			max = r
		}
	}
	return max
}

// DrainEnd returns the tick at which the slowest live established circuit
// finishes draining its pair when transmission opens at start (at its own
// ready time for a staggered circuit), and false when no live circuit has
// anything to send.
func (c *Circuit) DrainEnd(rem *matrix.Matrix, start int64) (end int64, live bool) {
	if c.ready == nil {
		maxRem := c.MaxRemaining(rem)
		return start + CeilDiv(maxRem, c.bw), maxRem > 0
	}
	for i, j := range c.perm {
		if j == -1 || c.down != nil && (c.down[i] || c.down[j]) {
			continue
		}
		if r := rem.At(i, j); r > 0 {
			end, live = max(end, c.ready[i]+CeilDiv(r, c.bw)), true
		}
	}
	return end, live
}

// Transmit drains rem over the window [start, end): every live established
// circuit drains its pair from start (from its ready time when staggered)
// until end at bw units per tick, decrementing rem and appending one flow
// interval (coflow 0) per circuit that moved data to flows when non-nil.
// Flow intervals are rounded up to whole ticks (⌈send/bw⌉). It returns the
// demand moved and never leaves a negative residual.
func (c *Circuit) Transmit(rem *matrix.Matrix, start, end int64, flows *schedule.FlowSchedule) int64 {
	var sent int64
	for i, j := range c.perm {
		if j == -1 {
			continue
		}
		if c.down != nil && (c.down[i] || c.down[j]) {
			continue
		}
		r := rem.At(i, j)
		if r == 0 {
			continue
		}
		from := start
		if c.ready != nil {
			from = c.ready[i]
		}
		span := end - from
		if span <= 0 {
			continue
		}
		send := span * c.bw
		if r < send {
			send = r
		}
		rem.Set(i, j, r-send)
		sent += send
		if flows != nil {
			*flows = append(*flows, schedule.FlowInterval{
				Start: from, End: from + CeilDiv(send, c.bw), In: i, Out: j, Coflow: 0,
			})
		}
	}
	return sent
}

// Electrical is an always-on packet fabric serving demand fluidly: within
// any window every flow shares its ports fractionally so the whole matrix
// drains in exactly its bottleneck time ρ scaled by the fabric's rate — a
// rational num/den fraction of a circuit lane's unit rate. There is no
// reconfiguration cost and no flow-level schedule (the model is fluid).
type Electrical struct {
	num, den int64
}

// NewElectrical returns an electrical fabric running at num/den of the
// unit circuit rate. num = den = 1 is the ideal packet switch of
// packet.FluidCCTs; num = 0 is a dark fabric that carries nothing. The
// fabric has no port count of its own: it serves whatever matrix it is
// handed.
func NewElectrical(num, den int64) (*Electrical, error) {
	if num < 0 || den <= 0 {
		return nil, fmt.Errorf("fabric: invalid electrical fabric rate=%d/%d", num, den)
	}
	return &Electrical{num: num, den: den}, nil
}

// Rate returns the fabric's rate as the rational num/den.
func (e *Electrical) Rate() (num, den int64) { return e.num, e.den }

// DrainTime returns the ticks this fabric needs to drain rem completely:
// ⌈ρ·den/num⌉ for bottleneck ρ = rem.MaxRowColSum(). A dark fabric
// (num = 0) reports 0 for empty demand and -1 (never) otherwise.
func (e *Electrical) DrainTime(rem *matrix.Matrix) int64 {
	rho := rem.MaxRowColSum()
	if rho == 0 {
		return 0
	}
	if e.num == 0 {
		return -1
	}
	t, ok := ceilMulDiv(rho, e.den, e.num)
	if !ok {
		return -1
	}
	return t
}

// Drain serves rem for w ticks: if w covers DrainTime the matrix empties;
// otherwise every entry drains the same fluid fraction w/DrainTime (floored
// per entry, so per-port totals never exceed w·num/den and no residual
// goes negative). Returns the demand moved.
func (e *Electrical) Drain(rem *matrix.Matrix, w int64) int64 {
	if w <= 0 || e.num == 0 {
		return 0
	}
	t := e.DrainTime(rem)
	if t == 0 {
		return 0
	}
	var sent int64
	if t > 0 && w >= t {
		rem.ForEachNonZero(func(i, j int, v int64) {
			rem.Set(i, j, 0)
			sent += v
		})
		return sent
	}
	rem.ForEachNonZero(func(i, j int, v int64) {
		send, ok := mulDiv(v, w, t)
		if !ok || send > v {
			send = v
		}
		if send == 0 {
			return
		}
		rem.Set(i, j, v-send)
		sent += send
	})
	return sent
}

// Permille quantizes a bandwidth fraction in [0, 1] to the rational
// num/1000 the Electrical fabric runs at, rounding to nearest. Quantizing
// keeps every downstream computation in exact integer arithmetic.
func Permille(frac float64) (num, den int64) {
	den = 1000
	num = int64(frac*float64(den) + 0.5)
	if num < 0 {
		num = 0
	}
	if num > den {
		num = den
	}
	return num, den
}

// CeilDiv returns ⌈a/b⌉ for non-negative a and positive b.
func CeilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// mulDiv returns ⌊a·b/c⌋ for non-negative a, b and positive c through a
// 128-bit intermediate, reporting ok = false when the quotient itself
// overflows int64.
func mulDiv(a, b, c int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		return 0, false // quotient would not fit in 64 bits
	}
	q, _ := bits.Div64(hi, lo, uint64(c))
	if q > 1<<62 {
		return 0, false
	}
	return int64(q), true
}

// ceilMulDiv is mulDiv rounding up instead of down.
func ceilMulDiv(a, b, c int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		return 0, false
	}
	q, r := bits.Div64(hi, lo, uint64(c))
	if r != 0 {
		q++
	}
	if q > 1<<62 {
		return 0, false
	}
	return int64(q), true
}
