package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/workload"
)

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return p
}

// TestRunSpecDigestGolden pins the content-address scheme of the serving
// layer. The digest is a function of SimVersion, the complete resolved
// model configuration, the complete workload profile and the normalized
// instruction budget. If this value moves, every cache entry in every
// deployed parrotd invalidates — which is correct when simulation
// semantics changed (bump SimVersion consciously), and a bug when a
// refactor reordered a struct field or altered the canonical encoding by
// accident. Treat a mismatch exactly like the matrix golden-digest test.
func TestRunSpecDigestGolden(t *testing.T) {
	const want = "29195865d17d464ac956e3e3f2dfd5befa35fc509c599932f931b21dc9b6126d"
	spec := RunSpec{Model: config.Get(config.TON), App: mustProfile(t, "swim"), Insts: 50_000}
	if got := spec.Digest(); got != want {
		t.Fatalf("RunSpec digest changed:\n got  %s\n want %s\n"+
			"If simulation semantics or the spec encoding changed intentionally, bump SimVersion and update this constant.", got, want)
	}
}

func TestRunSpecDigestStability(t *testing.T) {
	spec := RunSpec{Model: config.Get(config.TON), App: mustProfile(t, "gzip"), Insts: 10_000}
	d1 := spec.Digest()
	d2 := spec.Digest()
	if d1 != d2 {
		t.Fatalf("digest unstable across calls: %s vs %s", d1, d2)
	}
	if len(d1) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", d1)
	}
}

// TestRunSpecNormalization: Insts<=0 means "profile default" everywhere in
// the simulator, so the zero spec and the explicit-default spec must share
// one content address — otherwise the cache would compute the same cell
// twice under two keys.
func TestRunSpecNormalization(t *testing.T) {
	p := mustProfile(t, "swim")
	zero := RunSpec{Model: config.Get(config.N), App: p, Insts: 0}
	explicit := RunSpec{Model: config.Get(config.N), App: p, Insts: p.Instructions}
	if zero.Digest() != explicit.Digest() {
		t.Fatal("default-insts spec and explicit-default spec hash differently")
	}
	if n := zero.Normalize().Insts; n != p.Instructions {
		t.Fatalf("Normalize().Insts = %d, want %d", n, p.Instructions)
	}
}

// TestRunSpecDigestSensitivity: any input that changes what a run computes
// must change the address — including a perturbed model parameter under an
// unchanged model ID, the sensitivity-sweep case that rules out hashing
// only the ID.
func TestRunSpecDigestSensitivity(t *testing.T) {
	base := RunSpec{Model: config.Get(config.TON), App: mustProfile(t, "gzip"), Insts: 10_000}
	baseD := base.Digest()

	otherModel := base
	otherModel.Model = config.Get(config.TOS)
	otherApp := base
	otherApp.App = mustProfile(t, "swim")
	otherInsts := base
	otherInsts.Insts = 20_000
	tweaked := base
	tweaked.Model.BlazeThreshold = base.Model.BlazeThreshold + 1 // same ID, different knob

	for name, s := range map[string]RunSpec{
		"model":            otherModel,
		"app":              otherApp,
		"insts":            otherInsts,
		"perturbed_config": tweaked,
	} {
		if s.Digest() == baseD {
			t.Errorf("%s change did not move the digest", name)
		}
	}
}

// TestRunSpecDigestMemo: the encoding memo must be invisible. A model
// perturbed under an unchanged ID, after its unperturbed twin warmed the
// memo, gets its own digest, and every memoized digest equals a fresh
// encoding.
func TestRunSpecDigestMemo(t *testing.T) {
	base := RunSpec{Model: config.Get(config.TON), App: mustProfile(t, "gzip"), Insts: 10_000}
	fresh := func(s RunSpec) string {
		h := sha256.New()
		writeSpec(h, s.Model, s.App)
		h.Write(au64(nil, uint64(s.Insts)))
		return hex.EncodeToString(h.Sum(nil))
	}
	baseD := base.Digest() // warms the memo
	if again := base.Digest(); again != baseD || again != fresh(base) {
		t.Fatalf("memoized digest %s, first %s, fresh %s", again, baseD, fresh(base))
	}
	hit := testing.AllocsPerRun(50, func() { base.Digest() })
	if encode := testing.AllocsPerRun(50, func() { fresh(base) }); hit >= encode {
		t.Fatalf("memoized digest allocates %.0f times, a fresh encoding %.0f: the memo is not used", hit, encode)
	}
	tweaks := map[string]func(s *RunSpec){
		"model_int":   func(s *RunSpec) { s.Model.BlazeThreshold++ },
		"model_float": func(s *RunSpec) { s.Model.CoreAreaK += 1e-12 },
		"model_core":  func(s *RunSpec) { s.Model.Core.Units[0]++ },
		"app_float":   func(s *RunSpec) { s.App.HotFraction -= 1e-12 },
		"app_array":   func(s *RunSpec) { s.App.TripCount[1]++ },
	}
	for name, tweak := range tweaks {
		s := base
		tweak(&s)
		for pass := 0; pass < 2; pass++ { // miss, then memo hit
			if d := s.Digest(); d == baseD || d != fresh(s) {
				t.Errorf("%s pass %d: digest %.12s, base %.12s, fresh %.12s", name, pass, d, baseD, fresh(s))
			}
		}
	}
}

// TestRunSpecDigestNegativeZero: == equates -0 and +0, but their JSON
// differs, so a negative-zero field must not be served the memoized
// encoding of its positive twin.
func TestRunSpecDigestNegativeZero(t *testing.T) {
	pos := RunSpec{Model: config.Get(config.TON), App: mustProfile(t, "gzip"), Insts: 10_000}
	pos.App.FracFP = 0
	neg := pos
	neg.App.FracFP = math.Copysign(0, -1)
	posD := pos.Digest() // memoize the +0 pair
	if neg.Digest() == posD {
		t.Fatal("-0 spec served the memoized +0 digest")
	}
	if len(floatOffsets) < 2 {
		t.Fatalf("found %d float fields in the spec, want the model's and the profile's", len(floatOffsets))
	}
}

// TestRunSpecDigestMemoBounded: a sweep that mints a fresh model per cell
// cannot grow the memo past its cap, and digests stay correct across the
// reset.
func TestRunSpecDigestMemoBounded(t *testing.T) {
	base := RunSpec{Model: config.Get(config.N), App: mustProfile(t, "gzip"), Insts: 1_000}
	first := base.Digest()
	for i := 0; i < 3*specMemoCap; i++ {
		s := base
		s.Model.BTBEntries = i + 1
		s.Digest()
		specMemo.RLock()
		n := len(specMemo.m)
		specMemo.RUnlock()
		if n > specMemoCap {
			t.Fatalf("memo holds %d entries after %d distinct models, cap %d", n, i+1, specMemoCap)
		}
	}
	if base.Digest() != first {
		t.Fatal("digest changed across a memo reset")
	}
}

// TestRunSpecDigestConcurrent: goroutines sharing the memo, across its
// resets, each get the digest of a fresh encoding.
func TestRunSpecDigestConcurrent(t *testing.T) {
	base := RunSpec{Model: config.Get(config.TOW), App: mustProfile(t, "swim"), Insts: 1_000}
	want := make([]string, specMemoCap+specMemoCap/2)
	for i := range want {
		s := base
		s.Model.RASDepth = i + 1
		h := sha256.New()
		writeSpec(h, s.Model, s.App)
		h.Write(au64(nil, uint64(s.Insts)))
		want[i] = hex.EncodeToString(h.Sum(nil))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range want {
				i := (j*(g+1) + g) % len(want)
				s := base
				s.Model.RASDepth = i + 1
				if d := s.Digest(); d != want[i] {
					t.Errorf("goroutine %d, model %d: digest %.12s, want %.12s", g, i, d, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestResultDigestSensitivity: the per-cell result digest must react to
// any deterministic field — it is the corruption detector of the disk
// cache and the client's transport-integrity check.
func TestResultDigestSensitivity(t *testing.T) {
	res := core.RunWarm(config.Get(config.TON), mustProfile(t, "gzip"), 5000)
	base := ResultDigest(res)

	mutations := map[string]func(r *core.Result){
		"cycles":     func(r *core.Result) { r.Cycles++ },
		"insts":      func(r *core.Result) { r.Insts++ },
		"energy":     func(r *core.Result) { r.DynEnergy *= 1.0000001 },
		"breakdown":  func(r *core.Result) { r.Breakdown[0] += 1e-9 },
		"mispredict": func(r *core.Result) { r.BranchStats.Mispredicts++ },
		"counts":     func(r *core.Result) { r.Counts[0]++ },
	}
	for name, mutate := range mutations {
		cp := *res
		mutate(&cp)
		if ResultDigest(&cp) == base {
			t.Errorf("%s mutation did not move the result digest", name)
		}
	}
	if ResultDigest(res) != base {
		t.Fatal("result digest unstable on an unmutated result")
	}
}

// TestResultDigestConsistentWithMatrixDigest: hashing cells individually
// and hashing the matrix must agree on content — two identical matrices
// have identical cell digests and identical matrix digests, and a
// single-cell difference moves both.
func TestResultDigestConsistentWithMatrixDigest(t *testing.T) {
	apps := []workload.Profile{mustProfile(t, "gzip"), mustProfile(t, "swim")}
	models := []config.Model{config.Get(config.N), config.Get(config.TON)}
	a := Run(Config{Models: models, Apps: apps, Insts: 10_000})
	b := Run(Config{Models: models, Apps: apps, Insts: 10_000})
	if a.Digest() != b.Digest() {
		t.Fatal("identical runs: matrix digests differ")
	}
	for _, m := range models {
		for _, p := range apps {
			da := ResultDigest(a.Get(m.ID, p.Name))
			db := ResultDigest(b.Get(m.ID, p.Name))
			if da != db {
				t.Fatalf("identical runs: cell %s/%s digests differ", m.ID, p.Name)
			}
		}
	}
}
