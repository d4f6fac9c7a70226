// Package plancache caches scheduling results ("plans") keyed by a
// canonical fingerprint of the scheduling request, so a service facing a
// repetitive request stream — the common case for coflow workloads, whose
// demand shapes recur heavily — answers repeats from memory instead of
// re-running an LP solve and BvN decomposition.
//
// The package has three layers:
//
//   - Fingerprinting (this file): a collision-resistant canonical hash of
//     (algorithm, demand matrices, weights, δ, c, knobs, NoFlows). A
//     matrix is hashed as its non-zero cells and the lengths of the zero
//     runs between them, so the cost of a key follows the demand's support,
//     not n². Keys are exact: a plan is only ever served for the request it
//     was computed for.
//   - Cache: a sharded, bounded LRU over *algo.Result values, safe for
//     concurrent use, with hit/miss/eviction/size metrics on internal/obs.
//   - Group: singleflight request coalescing in front of the cache, so N
//     concurrent identical requests perform exactly one computation.
package plancache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"reco/internal/algo"
)

// noFlowsToken is the token Fingerprint appends after the demands of a
// request that sets NoFlows.
const noFlowsToken = 1

// Fingerprint returns the canonical cache key for a scheduling request
// executed under the named algorithm: a hex SHA-256 over an unambiguous
// binary serialization of the algorithm name, δ, c, every knob in
// algo.KnobTable order, weights, every demand matrix and, only when the
// request sets NoFlows, one token after the last matrix. Identical
// requests — and only identical requests, up to hash collisions — share a
// fingerprint.
//
// A matrix is written as its dimension n followed by row-major int64
// tokens: a positive token is one cell holding that value, a negative
// token −k is a maximal run of k zero cells (a run may cross row ends; it
// never crosses into the next matrix). This is the only form — there is no
// dense variant and no threshold between two — and it never costs more
// than the plain cell stream did: an isolated zero is one 8-byte token as
// before, while a sparse matrix hashes at most 16 bytes per non-zero
// instead of 8n².
//
// The serialization is injective. Runs are maximal, so a matrix has exactly
// one token sequence; and given n the sequence decodes only one way — read
// tokens, a positive one filling one cell and −k filling k, until n² cells
// are filled — which also marks where the matrix ends, so consecutive
// matrices cannot trade cells across their boundary. The demand count
// marks where the last matrix ends, so the NoFlows token is either there or
// not: a request that reads flows never shares a plan with one that asked
// for none, and a request without NoFlows keys as it did before the token
// existed.
//
// Keys changed once when this form replaced the plain cell stream: a deploy
// across that change starts with a cold plan cache.
func Fingerprint(alg string, req algo.Request) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	// Name first, NUL-terminated so no algorithm name is a prefix of a
	// longer one inside the stream.
	h.Write([]byte(alg))
	h.Write([]byte{0})
	writeInt(req.Delta)
	writeInt(req.C)
	for i := range algo.KnobTable {
		writeInt(int64(algo.KnobTable[i].Bits(req.Knobs)))
	}
	writeInt(int64(len(req.Weights)))
	for _, w := range req.Weights {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
		h.Write(buf[:])
	}
	writeInt(int64(len(req.Demands)))
	// Tokens go through a fixed stack chunk, one Write per 4 KB or so: the
	// byte stream (and so the key) is what one Write per token would produce.
	var chunk [4096]byte
	for _, d := range req.Demands {
		if d == nil {
			writeInt(-1)
			continue
		}
		writeInt(int64(d.N()))
		fill, run := 0, int64(0)
		for _, v := range d.Cells() {
			if v == 0 {
				run++
				continue
			}
			// Room for the run before this cell, the cell, and the run
			// that may close the matrix.
			if fill > len(chunk)-24 {
				h.Write(chunk[:fill])
				fill = 0
			}
			if run > 0 {
				binary.LittleEndian.PutUint64(chunk[fill:], uint64(-run))
				fill += 8
				run = 0
			}
			binary.LittleEndian.PutUint64(chunk[fill:], uint64(v))
			fill += 8
		}
		if run > 0 {
			binary.LittleEndian.PutUint64(chunk[fill:], uint64(-run))
			fill += 8
		}
		h.Write(chunk[:fill])
	}
	if req.NoFlows {
		writeInt(noFlowsToken)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultSize approximates the in-memory footprint of a cached result in
// bytes, for the cache's byte bound. It counts the slices that dominate —
// CCTs, flow intervals and circuit schedules — not Go object headers.
func resultSize(res *algo.Result) int64 {
	if res == nil {
		return 0
	}
	size := int64(len(res.CCTs)) * 8
	size += int64(len(res.Flows)) * 48
	for _, cs := range res.Schedules {
		for _, a := range cs {
			size += int64(len(a.Perm))*8 + 8
		}
	}
	return size + 64
}
