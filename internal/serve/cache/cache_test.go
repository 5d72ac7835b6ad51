package cache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/workload"
)

// testResult simulates one small cell (memoized per test binary via the
// machine pool and program cache).
func testResult(t *testing.T, modelID config.ModelID, app string, insts int) *core.Result {
	t.Helper()
	p, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	return core.RunWarm(config.Get(modelID), p, insts)
}

func testSpec(t *testing.T, modelID config.ModelID, app string, insts int) experiments.RunSpec {
	t.Helper()
	p, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	return experiments.RunSpec{Model: config.Get(modelID), App: p, Insts: insts}.Normalize()
}

func TestMemoryRoundTrip(t *testing.T) {
	c, err := New(Config{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t, config.TON, "gzip", 5000)
	spec := testSpec(t, config.TON, "gzip", 5000)
	digest := spec.Digest()

	if _, ok := c.Get(digest); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put(digest, res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(digest)
	if !ok {
		t.Fatal("no hit after Put")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("cache round-trip changed the result")
	}
	if d := experiments.ResultDigest(got); d != experiments.ResultDigest(res) {
		t.Fatalf("result digest changed through the cache: %s vs %s", d, experiments.ResultDigest(res))
	}
	st := c.Stats()
	if st.Hits != 1 || st.MemHits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 memHit / 1 miss", st)
	}
}

// TestHitIsolation: memory entries are resident values, so a caller that
// mutates a result it stored or was served must not reach the entry —
// through Put's argument, Get, GetCtx, or a disk promotion.
func TestHitIsolation(t *testing.T) {
	want := *testResult(t, config.TON, "gzip", 5000)
	digest := testSpec(t, config.TON, "gzip", 5000).Digest()
	c, err := New(Config{MemBudget: 1 << 20, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	stored := want
	if err := c.Put(digest, &stored); err != nil {
		t.Fatal(err)
	}
	stored.Cycles = 0

	scribble := func(r *core.Result) {
		r.Cycles++
		r.App = "scribbled"
		r.Breakdown[0] = -1
		r.Counts[0]++
	}
	lookups := map[string]func() (*core.Result, bool){
		"Get":    func() (*core.Result, bool) { return c.Get(digest) },
		"GetCtx": func() (*core.Result, bool) { return c.GetCtx(context.Background(), digest) },
	}
	for name, get := range lookups {
		for i := 0; i < 2; i++ {
			got, ok := get()
			if !ok {
				t.Fatalf("%s: miss", name)
			}
			if *got != want {
				t.Fatalf("%s lookup %d: entry changed by an earlier caller's mutation", name, i)
			}
			scribble(got)
		}
	}

	// A cold instance promotes the disk entry; its first hit is mutated.
	c2, err := New(Config{MemBudget: 1 << 20, Dir: c.dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(digest)
	if !ok || *got != want {
		t.Fatal("disk promotion did not serve the stored result")
	}
	scribble(got)
	if got, ok := c2.Get(digest); !ok || *got != want {
		t.Fatal("promoted entry changed by the promoting caller's mutation")
	}
}

// TestConcurrentHitsIsolated: goroutines that mutate their hits while
// others look the same entry up and store new ones all see the stored
// value.
func TestConcurrentHitsIsolated(t *testing.T) {
	want := *testResult(t, config.TON, "gzip", 5000)
	c, err := New(Config{MemBudget: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", &want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, ok := c.Get("k")
				if !ok || *got != want {
					t.Errorf("goroutine %d: hit %d differs from the stored result", g, i)
					return
				}
				got.Cycles += uint64(g + 1)
				if err := c.Put(fmt.Sprintf("%d-%d", g, i), got); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemHitAllocs: a memory hit decodes nothing; its one allocation is
// the caller's copy.
func TestMemHitAllocs(t *testing.T) {
	c, err := New(Config{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", testResult(t, config.TON, "gzip", 5000)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get("k"); !ok {
			t.Fatal("miss")
		}
	})
	if allocs > 1 {
		t.Fatalf("memory hit allocates %.0f times, want 1 (the returned copy)", allocs)
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	res := testResult(t, config.N, "gzip", 5000)
	payload, err := encode(res)
	if err != nil {
		t.Fatal(err)
	}
	// Budget for exactly two entries.
	c, err := New(Config{MemBudget: int64(2 * len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"aaa", "bbb", "ccc"}
	for _, k := range keys {
		if err := c.Put(k, res); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("entries = %d, want 2 (budget eviction)", c.Len())
	}
	if _, ok := c.Get("aaa"); ok {
		t.Fatal("least-recently-used entry survived over budget")
	}
	for _, k := range []string{"bbb", "ccc"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("recent entry %s evicted", k)
		}
	}
	// Touch bbb, insert ddd: ccc (now LRU) must go.
	if _, ok := c.Get("bbb"); !ok {
		t.Fatal("bbb missing")
	}
	if err := c.Put("ddd", res); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("ccc"); ok {
		t.Fatal("LRU entry ccc survived after recency update of bbb")
	}
	if _, ok := c.Get("bbb"); !ok {
		t.Fatal("recently touched bbb evicted")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if c.Bytes() > c.Stats().Budget {
		t.Fatalf("resident bytes %d exceed budget %d", c.Bytes(), c.Stats().Budget)
	}
}

func TestDiskRoundTripAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, config.TON, "swim", 5000)
	digest := testSpec(t, config.TON, "swim", 5000).Digest()

	c1, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(digest, res); err != nil {
		t.Fatal(err)
	}

	// A fresh instance (cold memory) must serve from disk and verify.
	c2, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(digest)
	if !ok {
		t.Fatal("disk entry not served by a fresh instance")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("disk round-trip changed the result")
	}
	st := c2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("diskHits = %d, want 1", st.DiskHits)
	}
	// Promotion: the second Get is a memory hit.
	if _, ok := c2.Get(digest); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("memHits = %d, want 1 after promotion", st.MemHits)
	}
}

// TestCorruptDiskEntriesNeverServed is the store's fault-injection table:
// every corruption mode must be detected (digest/structure mismatch), the
// entry expunged, the lookup reported as a miss — and a recompute + Put
// must repair the store. A corrupt entry is never served.
func TestCorruptDiskEntriesNeverServed(t *testing.T) {
	res := testResult(t, config.TN, "gcc", 5000)
	digest := testSpec(t, config.TN, "gcc", 5000).Digest()
	otherDigest := testSpec(t, config.TN, "gzip", 5000).Digest()

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string, valid []byte)
	}{
		{"truncated_header", func(t *testing.T, path string, valid []byte) {
			writeFile(t, path, valid[:6])
		}},
		{"truncated_mid_payload", func(t *testing.T, path string, valid []byte) {
			writeFile(t, path, valid[:len(valid)-len(valid)/3])
		}},
		{"empty_file", func(t *testing.T, path string, valid []byte) {
			writeFile(t, path, nil)
		}},
		{"bad_magic", func(t *testing.T, path string, valid []byte) {
			b := clone(valid)
			b[0] ^= 0xFF
			writeFile(t, path, b)
		}},
		{"bad_container_version", func(t *testing.T, path string, valid []byte) {
			b := clone(valid)
			b[8] ^= 0xFF // version u32 follows the 8-byte magic
			writeFile(t, path, b)
		}},
		{"stale_sim_version", func(t *testing.T, path string, valid []byte) {
			b := clone(valid)
			b[12]++ // simVer u32 follows the container version
			writeFile(t, path, b)
		}},
		{"payload_bitflip", func(t *testing.T, path string, valid []byte) {
			// Flip one byte near the end of the JSON payload: the entry still
			// parses structurally, so only the recomputed result digest can
			// catch it.
			b := clone(valid)
			b[len(b)-10] ^= 0x01
			writeFile(t, path, b)
		}},
		{"garbage", func(t *testing.T, path string, valid []byte) {
			writeFile(t, path, []byte("PARROTRCnot really a cache entry at all............"))
		}},
		{"cross_keyed_entry", func(t *testing.T, path string, valid []byte) {
			// A structurally valid entry for a different spec digest must not
			// satisfy this key (e.g. a mis-renamed file).
			payload, err := encode(res)
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, path, EncodeEntry(otherDigest, experiments.ResultDigest(res), payload))
		}},
		{"result_digest_mismatch", func(t *testing.T, path string, valid []byte) {
			payload, err := encode(res)
			if err != nil {
				t.Fatal(err)
			}
			wrong := experiments.ResultDigest(testResult(t, config.TN, "gzip", 5000))
			writeFile(t, path, EncodeEntry(digest, wrong, payload))
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(Config{MemBudget: 1 << 20, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(digest, res); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, digest+".prc")
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, path, valid)

			// Fresh instance: memory cold, disk corrupt.
			c2, err := New(Config{MemBudget: 1 << 20, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Get(digest); ok {
				t.Fatal("corrupt entry was served")
			}
			st := c2.Stats()
			if st.DiskErrors != 1 {
				t.Fatalf("diskErrors = %d, want 1", st.DiskErrors)
			}
			if st.Misses != 1 {
				t.Fatalf("misses = %d, want 1", st.Misses)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not expunged")
			}

			// Recompute-and-repair: the caller recomputes, Puts, and the
			// store verifies again.
			if err := c2.Put(digest, res); err != nil {
				t.Fatal(err)
			}
			c3, err := New(Config{MemBudget: 1 << 20, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			got, ok := c3.Get(digest)
			if !ok {
				t.Fatal("repaired entry not served")
			}
			if !reflect.DeepEqual(got, res) {
				t.Fatal("repaired entry differs from the recomputed result")
			}
		})
	}
}

func TestAtomicWriteLeavesNoTempVisible(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t, config.N, "swim", 5000)
	for i := 0; i < 4; i++ {
		if err := c.Put(testSpec(t, config.N, "swim", 5000+i).Digest(), res); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".prc" {
			t.Fatalf("unexpected non-entry file %q left behind", e.Name())
		}
	}
	if len(ents) != 4 {
		t.Fatalf("entries on disk = %d, want 4", len(ents))
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }
