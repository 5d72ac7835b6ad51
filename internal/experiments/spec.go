package experiments

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sync"
	"unsafe"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/workload"
)

// SimVersion identifies the generation of simulation semantics. It is part
// of every RunSpec digest, so any intentional modelling change — anything
// that would move the committed golden matrix digest — must bump it, which
// atomically invalidates every content-addressed cache entry produced by
// older kernels. Kernel rewrites that are bit-identical (the PR 1/2
// contract) keep the version and therefore keep the cache warm.
const SimVersion = 4

// RunSpec is the canonical, fully-resolved description of one simulation
// cell: the complete machine configuration (not just its ID — sensitivity
// sweeps perturb parameters under an unchanged ID), the complete workload
// profile and the dynamic instruction budget. PR 2's golden digest proved a
// run is a bit-exact function of exactly these inputs, which makes the
// digest below a sound content address for the result.
type RunSpec struct {
	Model config.Model     `json:"model"`
	App   workload.Profile `json:"app"`
	Insts int              `json:"insts"`
}

// Normalize resolves defaulted fields to their effective values, so specs
// that run identically hash identically: Insts <= 0 means "profile default"
// everywhere in the simulator (core.RunWarmOn), so it is rewritten to the
// profile's instruction count.
func (s RunSpec) Normalize() RunSpec {
	if s.Insts <= 0 {
		s.Insts = s.App.Instructions
	}
	return s
}

// Digest returns the hex SHA-256 content address of the spec: the cache
// key of the serving layer. The encoding is canonical — SimVersion, then
// the JSON of the resolved model and profile (struct declaration order,
// stable across runs and processes), then the normalized instruction
// count. Two processes that build the same spec derive the same address
// with no coordination.
//
// Note JSON field order is Go struct declaration order: adding or moving a
// field in config.Model, ooo.Config, mem.HierarchyConfig, opt.Config or
// workload.Profile changes every digest. That is the desired behaviour
// (new knobs mean results may differ), and TestRunSpecDigestGolden pins it
// so such changes are made consciously alongside a SimVersion review.
func (s RunSpec) Digest() string {
	s = s.Normalize()
	h := specHash(s.Model, s.App)
	h.Write(au64(nil, uint64(s.Insts)))
	return hex.EncodeToString(h.Sum(nil))
}

// specKey is the full (model, profile) value pair. Both types are flat
// and comparable, so the pair itself is the memo key: a model perturbed
// under an unchanged ID is a different key.
type specKey struct {
	model config.Model
	app   workload.Profile
}

// specMemoCap bounds the memo. Past it the memo starts over, so sweeps
// that mint a fresh model per cell cannot grow it without limit.
const specMemoCap = 1024

// specMemo maps a (model, profile) pair to the SHA-256 state after
// absorbing the pair's canonical encoding (writeSpec). Entries are never
// modified after insertion.
var specMemo struct {
	sync.RWMutex
	m map[specKey][]byte
}

// specHash returns a SHA-256 hash that has absorbed the canonical encoding
// of the pair: SimVersion, then the length-prefixed JSON of the model and
// of the profile. JSON encoding and hashing it dominate the cost of
// Digest, and a server hashes the same few hundred pairs over and over, so
// the hash state is memoized per pair. Map keys compare floats with ==,
// which equates -0 and +0 although their JSON differs ("-0" vs "0"); a
// pair holding a negative zero is therefore encoded afresh every time.
func specHash(m config.Model, p workload.Profile) hash.Hash {
	h := sha256.New()
	k := specKey{model: m, app: p}
	if k.hasNegZero() {
		writeSpec(h, m, p)
		return h
	}
	specMemo.RLock()
	state, ok := specMemo.m[k]
	specMemo.RUnlock()
	if ok {
		if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
			panic(fmt.Sprintf("experiments: hash state not restorable: %v", err))
		}
		return h
	}
	writeSpec(h, m, p)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("experiments: hash state not serializable: %v", err))
	}
	specMemo.Lock()
	if len(specMemo.m) >= specMemoCap || specMemo.m == nil {
		specMemo.m = make(map[specKey][]byte)
	}
	specMemo.m[k] = state
	specMemo.Unlock()
	return h
}

// writeSpec streams the canonical encoding of a (model, profile) pair.
func writeSpec(h hash.Hash, m config.Model, p workload.Profile) {
	mb, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("experiments: model spec not serializable: %v", err))
	}
	pb, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("experiments: profile spec not serializable: %v", err))
	}
	h.Write(abytes(abytes(au64(make([]byte, 0, 24+len(mb)+len(pb)), SimVersion), mb), pb))
}

// floatOffsets holds the byte offset of every float64 inside specKey,
// found once by reflection so hasNegZero needs none.
var floatOffsets = float64Offsets(reflect.TypeOf(specKey{}), 0)

func float64Offsets(t reflect.Type, base uintptr) (out []uintptr) {
	switch t.Kind() {
	case reflect.Float64:
		out = append(out, base)
	case reflect.Float32:
		panic("experiments: float32 spec fields are not supported by the spec memo")
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			out = append(out, float64Offsets(t.Elem(), base+uintptr(i)*t.Elem().Size())...)
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, float64Offsets(f.Type, base+f.Offset)...)
		}
	}
	return out
}

// hasNegZero reports whether any float inside the pair is a negative zero.
func (k *specKey) hasNegZero() bool {
	for _, off := range floatOffsets {
		if math.Float64bits(*(*float64)(unsafe.Add(unsafe.Pointer(k), off))) == 1<<63 {
			return true
		}
	}
	return false
}

// canonical little-endian appenders shared by the spec and result
// encodings. Encodings are built in a byte slice and hashed in one write:
// a small array handed to hash.Hash.Write escapes to the heap, so writing
// field by field would allocate once per field.

func au64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func af64(b []byte, v float64) []byte { return au64(b, math.Float64bits(v)) }

func abytes(b, v []byte) []byte { return append(au64(b, uint64(len(v))), v...) }

func astr(b []byte, s string) []byte { return append(au64(b, uint64(len(s))), s...) }

// appendResult appends every deterministic field of one cell result in
// canonical order. It is the single definition shared by the matrix-level
// Results.Digest (the golden-digest test) and the cell-level ResultDigest
// (the serving cache's integrity check), so a cached cell that verifies
// individually also verifies inside a reassembled matrix.
func appendResult(b []byte, res *core.Result) []byte {
	b = astr(b, string(res.Model))
	b = astr(b, res.App)
	b = au64(b, res.Insts)
	b = au64(b, res.Cycles)
	b = au64(b, res.HotInsts)
	b = au64(b, res.ColdInsts)
	b = af64(b, res.DynEnergy)
	for _, e := range res.Breakdown {
		b = af64(b, e)
	}
	b = au64(b, res.BranchStats.Lookups)
	b = au64(b, res.BranchStats.Updates)
	b = au64(b, res.BranchStats.Mispredicts)
	b = au64(b, res.TPredStats.Lookups)
	b = au64(b, res.TPredStats.Predictions)
	b = au64(b, res.TPredStats.Correct)
	b = au64(b, res.TPredStats.Mispredicts)
	b = au64(b, res.TPredStats.Updates)
	b = au64(b, res.TCStats.Lookups)
	b = au64(b, res.TCStats.Hits)
	b = au64(b, res.TCStats.Misses)
	b = au64(b, res.TCStats.Inserts)
	b = au64(b, res.TCStats.Writebacks)
	b = au64(b, res.TCStats.Evictions)
	b = au64(b, res.TraceAborts)
	b = au64(b, res.TraceBuilds)
	b = au64(b, res.HotSegments)
	b = au64(b, res.ColdSegments)
	b = au64(b, res.Optimizations)
	b = au64(b, res.OptUopsBefore)
	b = au64(b, res.OptUopsAfter)
	b = au64(b, res.OptCritBefore)
	b = au64(b, res.OptCritAfter)
	b = au64(b, res.DynUopsOrig)
	b = au64(b, res.DynUopsOpt)
	b = au64(b, res.DynCritOrig)
	b = au64(b, res.DynCritOpt)
	b = au64(b, res.OptTracesSeen)
	b = au64(b, res.OptExecs)
	b = au64(b, res.UopsCommitted)
	b = au64(b, res.UopsDispatched)
	for _, c := range res.Counts {
		b = au64(b, c)
	}
	return b
}

// ResultDigest returns the hex SHA-256 over every deterministic field of a
// single cell result — the value the serving cache stores alongside each
// entry and recomputes on load, so corrupt or truncated entries are
// detected by digest mismatch and recomputed rather than served.
func ResultDigest(res *core.Result) string {
	sum := sha256.Sum256(appendResult(make([]byte, 0, resultBytes), res))
	return hex.EncodeToString(sum[:])
}

// resultBytes is room for one appendResult encoding: two short strings
// plus fixed-width fields.
const resultBytes = 1024
