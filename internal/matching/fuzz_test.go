package matching

import (
	"math/rand"
	"testing"
)

// fuzzGraph decodes a fuzz input: the first byte picks n in [1, 130], and
// bit u·n+v of the rest (missing bytes read as zero) says whether the edge
// (u, v) is present.
func fuzzGraph(data []byte) (n int, adj [][]int) {
	if len(data) == 0 {
		return 1, make([][]int, 1)
	}
	n = 1 + int(data[0])%130
	bitsOf := data[1:]
	adj = make([][]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if k := u*n + v; k>>3 < len(bitsOf) && bitsOf[k>>3]>>(k&7)&1 == 1 {
				adj[u] = append(adj[u], v)
			}
		}
	}
	return n, adj
}

// fuzzInput is fuzzGraph's inverse, for the seed corpus.
func fuzzInput(n int, edge func(u, v int) bool) []byte {
	data := make([]byte, 1+(n*n+7)/8)
	data[0] = byte(n - 1)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if edge(u, v) {
				k := u*n + v
				data[1+k>>3] |= 1 << (k & 7)
			}
		}
	}
	return data
}

// FuzzGraphMatchesReference holds the bitset Hopcroft–Karp to the recursive
// adjacency-list one on arbitrary graphs up to three words wide, through
// checkGraphMatchesReference. Its seeds sit on both sides of the one-word
// row boundary.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add([]byte{7})                                                             // empty graph, n = 8
	f.Add(fuzzInput(64, func(u, v int) bool { return true }))                    // complete, the widest one-word graph
	f.Add(fuzzInput(65, func(u, v int) bool { return true }))                    // complete, one bit into the second word
	f.Add(fuzzInput(9, func(u, v int) bool { return v < 4 }))                    // no perfect matching
	f.Add(fuzzInput(130, func(u, v int) bool { return v == u%129 || v == u+1 })) // one augmenting chain through every vertex
	// About three edges per row at n = 70: sparse enough that a later search
	// of a phase re-enters a vertex an earlier path of that phase re-matched.
	rng := rand.New(rand.NewSource(10))
	f.Add(fuzzInput(70, func(u, v int) bool { return rng.Intn(70) < 3 }))
	// Dense at n = 60, the experiment tables' size, with column 17 empty: no
	// matching is perfect, so the phases after the greedy pass end on a
	// failed BFS, whose labels the check reads.
	f.Add(fuzzInput(60, func(u, v int) bool { return v != 17 && rng.Intn(10) < 8 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, adj := fuzzGraph(data)
		checkGraphMatchesReference(t, adj)
	})
}
