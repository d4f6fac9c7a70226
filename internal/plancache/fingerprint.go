// Package plancache caches scheduling results ("plans") keyed by a
// canonical fingerprint of the scheduling request, so a service facing a
// repetitive request stream — the common case for coflow workloads, whose
// demand shapes recur heavily — answers repeats from memory instead of
// re-running an LP solve and BvN decomposition.
//
// The package has three layers:
//
//   - Fingerprinting (this file): a collision-resistant canonical hash of
//     (algorithm, demand matrices, weights, δ, c). An opt-in ε-quantized
//     variant buckets demand entries so near-identical matrices share a key
//     — the serving-side counterpart of Reco's regularization argument that
//     close demand matrices deserve (near-)identical circuit schedules.
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

// Fingerprint returns the canonical cache key for a scheduling request
// executed under the named algorithm: a hex SHA-256 over an unambiguous
// binary serialization of the algorithm name, δ, c, every knob in
// algo.KnobTable order, weights and every demand matrix (dimension then
// row-major entries). Identical requests — and only identical requests, up
// to hash collisions — share a fingerprint.
func Fingerprint(alg string, req algo.Request) string {
	return fingerprint(alg, req, 0)
}

// QuantizedFingerprint is Fingerprint with demand entries bucketed to
// multiples of step = max(1, round(eps·scale)) before hashing, where scale
// is the request's largest entry rounded up to a power of two. Rounding the
// scale keeps the step stable across near-identical requests (a raw
// max-entry scale would shift the whole grid when the peak entry drifts by
// one tick). Requests whose entries land in the same ε-buckets collide on
// purpose: an ε-close request reuses the plan of the first-seen
// representative. As with any bucketing scheme, a pair of entries
// straddling a bucket edge may still separate even if they differ by less
// than one step. δ, c and weights stay exact. eps <= 0 degrades to the
// exact Fingerprint.
func QuantizedFingerprint(alg string, req algo.Request, eps float64) string {
	return fingerprint(alg, req, eps)
}

func fingerprint(alg string, req algo.Request, eps float64) string {
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
	step := int64(1)
	if eps > 0 {
		var mx int64
		for _, d := range req.Demands {
			if d == nil {
				continue
			}
			if e := d.MaxEntry(); e > mx {
				mx = e
			}
		}
		scale := int64(1)
		for scale < mx {
			scale <<= 1
		}
		if s := int64(math.Round(eps * float64(scale))); s > 1 {
			step = s
		}
		// The step itself must be part of the key: the same matrix hashed
		// under different ε values must not collide.
		writeInt(step)
	}
	writeInt(int64(len(req.Demands)))
	// Cells go through a fixed stack chunk, one Write per 4 KB: the byte
	// stream (and so the key) is what one Write per cell produced.
	var chunk [4096]byte
	for _, d := range req.Demands {
		if d == nil {
			writeInt(-1)
			continue
		}
		writeInt(int64(d.N()))
		cells := d.Cells()
		for len(cells) > 0 {
			k := min(len(cells), len(chunk)/8)
			for idx, v := range cells[:k] {
				if step > 1 {
					// Round to the nearest bucket midpoint so a value just
					// below and just above a bucket edge still usually agree.
					v = (v + step/2) / step
				}
				binary.LittleEndian.PutUint64(chunk[idx*8:], uint64(v))
			}
			h.Write(chunk[:k*8])
			cells = cells[k:]
		}
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
