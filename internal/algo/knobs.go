package algo

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Knobs are the optional per-request tuning values. Request and the API's
// request structs embed it, so a knob's Go name, type and wire key are
// declared here once; everything else about it — range, unset value,
// owning capability, help text — is its row in KnobTable.
type Knobs struct {
	Cores    int     `json:"cores,omitempty"`
	K        int     `json:"k,omitempty"`
	ElecFrac float64 `json:"elec_frac,omitempty"`
}

const (
	// MaxCores bounds the cores knob. The K-core schedulers allocate one
	// n×n demand share per core, so an unbounded count is an out-of-memory
	// kill a 33 KB request can ask for; results/kcore.csv and the K-core
	// papers stop at K = 8.
	MaxCores = 1024
	// MaxTerms bounds the k knob, which sizes the BvN term list up front.
	// A full decomposition has at most n²−2n+2 terms, so 2^20 is "no
	// bound" for any fabric up to 1024 ports.
	MaxTerms = 1 << 20
)

// Knob is one row of KnobTable. The consumer layers — CLI flags, the
// request parser, validation, capability gating, plan-cache keys, docs —
// loop over the rows and never name a knob themselves.
type Knob struct {
	// Key is the wire key; the CLI flag is the same word (see Flag).
	Key string
	// Float marks a float64 knob; the others are ints.
	Float bool
	// Min and Max bound the valid values, inclusive.
	Min, Max float64
	// Unset is the largest value that leaves the knob unset: values up to
	// it select the algorithm's default and need no capability. The zero
	// value — the flag default, omitted on the wire — is always unset.
	Unset float64
	// Cap is the capability tag an algorithm must carry for the knob to be
	// set; requests setting it on any other algorithm are rejected, since
	// the value would be silently ignored.
	Cap string
	// Doc is the one-line description shown as flag help and in the docs.
	Doc string

	has func(Capabilities) bool
	// load and store move the value as the 8 bytes the plan-cache key
	// hashes: an int as its int64, a float64 as its IEEE-754 bits. Both
	// take Knobs by value so a caller's request never escapes to the heap.
	load  func(Knobs) uint64
	store func(Knobs, uint64) Knobs
}

// KnobTable declares every knob. Row order is the order of the knob bytes
// in plan-cache keys, so rows are only ever appended.
var KnobTable = [...]Knob{
	{
		Key: "cores", Max: MaxCores, Unset: 1, Cap: "cores",
		Doc:   "K-core fabric width: parallel switching cores sharing the ports (0 and 1 both mean the paper's single switch)",
		has:   func(c Capabilities) bool { return c.Cores },
		load:  func(k Knobs) uint64 { return uint64(k.Cores) },
		store: func(k Knobs, b uint64) Knobs { k.Cores = int(b); return k },
	},
	{
		Key: "k", Max: MaxTerms, Cap: "sparse",
		Doc:   "BvN term bound per coflow for sparsity-bounded schedulers (0 = the algorithm's default)",
		has:   func(c Capabilities) bool { return c.Sparse },
		load:  func(k Knobs) uint64 { return uint64(k.K) },
		store: func(k Knobs, b uint64) Knobs { k.K = int(b); return k },
	},
	{
		Key: "elec_frac", Float: true, Max: 1, Cap: "hybrid",
		Doc:   "electrical fabric rate as a fraction of one optical circuit lane (0 = the algorithm's default)",
		has:   func(c Capabilities) bool { return c.Hybrid },
		load:  func(k Knobs) uint64 { return math.Float64bits(k.ElecFrac) },
		store: func(k Knobs, b uint64) Knobs { k.ElecFrac = math.Float64frombits(b); return k },
	},
}

// KnobIndex returns the KnobTable index of the knob with the given wire
// key, or -1.
func KnobIndex(key []byte) int {
	for i := range KnobTable {
		if string(key) == KnobTable[i].Key {
			return i
		}
	}
	return -1
}

// Flag returns the knob's CLI flag name: the wire key with '_' as '-'.
func (kn *Knob) Flag() string { return strings.ReplaceAll(kn.Key, "_", "-") }

// Bits returns the knob's value in k as the 8 bytes plan-cache keys hash.
func (kn *Knob) Bits(k Knobs) uint64 { return kn.load(k) }

// SetInt returns k with this int knob set to v.
func (kn *Knob) SetInt(k Knobs, v int) Knobs { return kn.store(k, uint64(v)) }

// SetFloat returns k with this float64 knob set to v.
func (kn *Knob) SetFloat(k Knobs, v float64) Knobs { return kn.store(k, math.Float64bits(v)) }

// value returns the knob's value in k as a float64, for range checks.
func (kn *Knob) value(k Knobs) float64 {
	if kn.Float {
		return math.Float64frombits(kn.load(k))
	}
	return float64(int64(kn.load(k)))
}

// IsSet reports whether k sets the knob (its value is above Unset).
func (kn *Knob) IsSet(k Knobs) bool { return kn.value(k) > kn.Unset }

// Format renders the knob's value in k as the CLI and JSON write it.
func (kn *Knob) Format(k Knobs) string {
	if kn.Float {
		return strconv.FormatFloat(kn.value(k), 'g', -1, 64)
	}
	return strconv.FormatInt(int64(kn.load(k)), 10)
}

// Range renders the valid range, e.g. "[0, 1024]".
func (kn *Knob) Range() string { return "[" + bound(kn.Min) + ", " + bound(kn.Max) + "]" }

// Usage is the knob's flag help: Doc plus the range and capability rules.
func (kn *Knob) Usage() string {
	return fmt.Sprintf("%s; in %s, above %s needs an algorithm with the %s capability",
		kn.Doc, kn.Range(), bound(kn.Unset), kn.Cap)
}

func bound(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// Validate checks every knob against its row's range. The comparison is
// written so that NaN, which fails every ordering, is out of range.
func (k Knobs) Validate() error {
	for i := range KnobTable {
		kn := &KnobTable[i]
		if v := kn.value(k); !(kn.Min <= v && v <= kn.Max) {
			return fmt.Errorf("%w: %s %s outside %s", ErrBadRequest, kn.Key, kn.Format(k), kn.Range())
		}
	}
	return nil
}

// CheckKnobs is the one gate every dispatcher applies before scheduling:
// knobs in range, and none set that sched's capabilities do not include.
func CheckKnobs(sched Scheduler, k Knobs) error {
	if err := k.Validate(); err != nil {
		return err
	}
	caps := sched.Caps()
	for i := range KnobTable {
		if kn := &KnobTable[i]; kn.IsSet(k) && !kn.has(caps) {
			return fmt.Errorf("%w: %s %s: algorithm %s has no %s capability",
				ErrBadRequest, kn.Key, kn.Format(k), sched.Name(), kn.Cap)
		}
	}
	return nil
}

// KnobFlags registers one flag per KnobTable row on fs, storing into k.
func KnobFlags(fs *flag.FlagSet, k *Knobs) {
	for i := range KnobTable {
		kn := &KnobTable[i]
		fs.Var(knobFlag{kn, k}, kn.Flag(), kn.Usage())
	}
}

// knobFlag adapts one knob of a Knobs value to flag.Value.
type knobFlag struct {
	kn *Knob
	k  *Knobs
}

func (f knobFlag) String() string {
	if f.kn == nil { // the zero value package flag probes for defaults
		return ""
	}
	return f.kn.Format(*f.k)
}

func (f knobFlag) Set(s string) error {
	if f.kn.Float {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		*f.k = f.kn.SetFloat(*f.k, v)
		return nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*f.k = f.kn.SetInt(*f.k, v)
	return nil
}
