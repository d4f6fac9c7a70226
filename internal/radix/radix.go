// Package radix sorts items by uint64 keys with a stable
// least-significant-digit radix sort: 8-bit digits, one counting pass per
// digit, and no pass at all for a digit every key shares. It is the one
// sort on the Reco-Mul path and in Sunflow, where every order is a strict
// total order spelled as a sequence of stable key passes.
package radix

import "sync"

// entry is an item's key and its index in the input.
type entry struct {
	key uint64
	at  int
}

// entries recycles the key arrays Sort passes digits through.
var entries sync.Pool // *[]entry

// Sort sorts items stably into ascending key order. key is asked once per
// item. The digit passes move (key, index) pairs, not items, through
// pooled scratch, and the items are then permuted into place, each moved
// at most once; a digit some keys disagree on costs two passes over the
// pairs, so keys that agree in their high bytes (a duration below 2²⁴, a
// port pair below 2¹⁶) sort in a few passes.
func Sort[T any](items []T, key func(T) uint64) {
	n := len(items)
	if n < 2 {
		return
	}
	p, _ := entries.Get().(*[]entry)
	if p == nil {
		p = new([]entry)
	}
	if cap(*p) < 2*n {
		*p = make([]entry, 2*n)
	}
	src, dst := (*p)[:n], (*p)[n:2*n]
	and, or := ^uint64(0), uint64(0)
	for i, x := range items {
		k := key(x)
		src[i] = entry{k, i}
		and &= k
		or |= k
	}
	varying := or &^ and // the bits some keys disagree on
	if varying != 0 {
		for shift := uint(0); varying>>shift != 0; shift += 8 {
			if varying>>shift&0xff == 0 {
				continue
			}
			var at [256]int
			for _, e := range src {
				at[e.key>>shift&0xff]++
			}
			next := 0
			for b, c := range at {
				at[b] = next
				next += c
			}
			for _, e := range src {
				b := e.key >> shift & 0xff
				dst[at[b]] = e
				at[b]++
			}
			src, dst = dst, src
		}
		permute(items, src)
	}
	entries.Put(p)
}

// permute puts items[order[r].at] at r for every r, one cycle of the
// permutation at a time, and marks each entry it has placed with at = -1.
func permute[T any](items []T, order []entry) {
	for r := range order {
		k := order[r].at
		if k == r || k < 0 {
			continue
		}
		first := items[r]
		j := r
		for k != r {
			items[j] = items[k]
			order[j].at = -1
			j, k = k, order[k].at
		}
		items[j] = first
		order[j].at = -1
	}
}

// Signed maps an int64 to a uint64 key of the same order: the sign bit
// flipped puts negative values first.
func Signed(v int64) uint64 { return uint64(v) ^ 1<<63 }

// Desc maps an int64 to a key that orders it largest first.
func Desc(v int64) uint64 { return ^Signed(v) }
