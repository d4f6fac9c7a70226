package radix

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// item is a key and the item's input position, which makes stability
// visible: equal keys must keep their positions in increasing order.
type item struct {
	key uint64
	pos int
}

func itemKey(x item) uint64 { return x.key }

// checkAgainstStable sorts keys with Sort and with slices.SortStableFunc
// and fails unless the two agree item by item.
func checkAgainstStable(t *testing.T, name string, keys []uint64) {
	t.Helper()
	got := make([]item, len(keys))
	for i, k := range keys {
		got[i] = item{k, i}
	}
	want := slices.Clone(got)
	Sort(got, itemKey)
	slices.SortStableFunc(want, func(a, b item) int { return cmp.Compare(a.key, b.key) })
	if !slices.Equal(got, want) {
		t.Fatalf("%s (%d keys): Sort and slices.SortStableFunc disagree", name, len(keys))
	}
}

// TestRadixStableMatchesSort checks Sort against the standard library's
// stable sort on random keys of every width and tie density, and on the
// edge cases: no, one and two items, all keys equal, keys that differ only
// in their top byte, math.MaxInt64 among small keys, and starts of either
// sign through Signed.
func TestRadixStableMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	checkAgainstStable(t, "empty", nil)
	checkAgainstStable(t, "one", []uint64{7})
	checkAgainstStable(t, "two, ordered", []uint64{1, 2})
	checkAgainstStable(t, "two, reversed", []uint64{2, 1})
	checkAgainstStable(t, "two, equal", []uint64{5, 5})
	equal := make([]uint64, 300)
	for i := range equal {
		equal[i] = 1 << 40
	}
	checkAgainstStable(t, "all equal", equal)
	var top []uint64
	for range 500 {
		top = append(top, uint64(rng.Intn(256))<<56|0x00ab_cdef_0123_4567)
	}
	checkAgainstStable(t, "only byte 7 differs", top)
	checkAgainstStable(t, "MaxInt64", []uint64{3, math.MaxInt64, 0, math.MaxInt64, 1 << 62, 3})
	checkAgainstStable(t, "MaxUint64", []uint64{math.MaxUint64, 0, math.MaxUint64 - 1, 1})

	for trial := range 200 {
		n := rng.Intn(3000)
		width := uint(1 + rng.Intn(64)) // keys below 2^width
		distinct := 1 + rng.Intn(n+1)   // ties when fewer values than items
		values := make([]uint64, distinct)
		for i := range values {
			values[i] = rng.Uint64() >> (64 - width)
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = values[rng.Intn(distinct)]
		}
		checkAgainstStable(t, "random", keys)
		if trial%50 == 0 {
			// A small sort right after a large one reuses the pooled
			// scratch the large one left.
			checkAgainstStable(t, "after a large sort", keys[:min(n, 3)])
		}
	}

	// Starts of either sign, through the sign flip, sort as int64 does.
	starts := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, -1 << 40, 1 << 40, -5, 5}
	for range 1000 {
		starts = append(starts, rng.Int63()-rng.Int63())
	}
	got := slices.Clone(starts)
	Sort(got, Signed)
	want := slices.Clone(starts)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("Signed keys do not sort as int64 does")
	}
	Sort(got, Desc)
	slices.Reverse(want)
	if !slices.Equal(got, want) {
		t.Fatal("Desc keys do not sort largest first")
	}
}
