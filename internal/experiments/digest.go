package experiments

import (
	"crypto/sha256"
	"encoding/hex"
)

// Digest returns a hex-encoded SHA-256 over every deterministic field of the
// result matrix, walked in canonical order (models in config.All order,
// applications in roster order). Two runs that are bit-identical in all
// architected outputs — cycle counts, instruction routing, energy event
// vectors, trace-machinery counters — produce the same digest; any semantic
// divergence in the simulation kernel changes it.
//
// Each cell is hashed by appendResult (see spec.go), the same canonical
// encoding ResultDigest applies to single cells, so a matrix reassembled
// from individually cached (and individually verified) cells reproduces
// this digest bit-exactly — the property the serving layer's CI smoke test
// enforces end-to-end.
//
// The committed golden digest (see TestMatrixGoldenDigest) is the safety net
// that makes aggressive kernel rewrites shippable: the event-driven engine
// must reproduce the poll-everything engine's matrix exactly.
func (r *Results) Digest() string {
	h := sha256.New()
	b := make([]byte, 0, resultBytes)
	for _, id := range r.Models() {
		for _, p := range r.Apps() {
			if res := r.Get(id, p.Name); res != nil {
				b = appendResult(b[:0], res)
			} else {
				b = astr(astr(b[:0], string(id)), p.Name)
			}
			h.Write(b)
		}
	}
	h.Write(astr(af64(b[:0], r.PMax), r.PMaxApp))
	return hex.EncodeToString(h.Sum(nil))
}
