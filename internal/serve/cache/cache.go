// Package cache implements the serving layer's content-addressed result
// store. Keys are RunSpec digests (hex SHA-256 of the fully-resolved run
// spec, see experiments.RunSpec.Digest); values are complete core.Result
// cells. PR 2's golden digest proved runs are bit-exact functions of their
// spec, so the mapping digest → result is immutable: entries never need
// invalidation (a modelling change bumps experiments.SimVersion, which
// changes every key).
//
// The store is two-level: a byte-budgeted in-memory LRU front serves
// repeated cells in microseconds, and an optional on-disk store (atomic
// rename writes) survives restarts. The front holds decoded core.Result
// values: a hit copies one out and decodes nothing. Every disk entry
// carries the canonical result digest (experiments.ResultDigest); disk
// loads are verified against it, so corrupt or truncated entries are
// detected, expunged and recomputed — never served.
package cache

import (
	"context"
	"encoding/json"
	"sync"

	"parrot/internal/chaos"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/metrics"
	"parrot/internal/telemetry"
	tlog "parrot/internal/telemetry/log"
)

// Stats counts cache traffic. Hits = MemHits + DiskHits.
type Stats struct {
	Hits       uint64
	Misses     uint64
	MemHits    uint64
	DiskHits   uint64
	Puts       uint64
	Evictions  uint64
	DiskPuts   uint64
	DiskErrors uint64 // unreadable/corrupt/mismatched disk entries expunged

	Entries int   // resident in-memory entries
	Bytes   int64 // encoded payload bytes charged for resident entries
	Budget  int64 // in-memory byte budget

	// EntryBytesMean is the mean encoded entry size over all insertions.
	EntryBytesMean float64
}

// HitRate returns hits per lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Config parameterizes a cache.
type Config struct {
	// MemBudget bounds resident payload bytes (<=0 = 64 MiB). Each entry is
	// charged the size of its encoded payload (the canonical JSON the disk
	// store writes); map/list overhead is not charged.
	MemBudget int64
	// Dir enables the on-disk store when non-empty. The directory is
	// created if missing. Disk entries are not budgeted (cells are a few
	// KiB; a full 44×7 matrix is ~1 MiB).
	Dir string
	// Chaos, when non-nil, arms the "cache.disk.get" / "cache.disk.put"
	// injection sites: slow-disk latency and I/O faults (a failed read is
	// a miss, a failed write counts a DiskErrors).
	Chaos *chaos.Injector
}

// entry is one resident cell on an intrusive LRU list. core.Result holds
// no pointers, slices or maps, so copying res in or out isolates the
// entry from every caller.
type entry struct {
	key        string
	res        core.Result
	size       int64  // encoded payload bytes charged to the budget
	next, prev *entry // LRU list: head = most recent
}

// Cache is a content-addressed result store. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	dir     string
	chaos   *chaos.Injector

	// occupancy histograms encoded entry sizes over all insertions — the
	// byte-budget sizing signal surfaced on /metricsz.
	occupancy *metrics.Histogram

	stats Stats
}

// New builds a cache. If cfg.Dir is non-empty the directory is created and
// used as the persistent second level.
func New(cfg Config) (*Cache, error) {
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = 64 << 20
	}
	c := &Cache{
		budget:  budget,
		entries: make(map[string]*entry),
		dir:     cfg.Dir,
		chaos:   cfg.Chaos,
		// Entry-size buckets: cells encode to a few KiB; 1 KiB steps up to
		// 16 KiB cover the realistic range, the overflow bucket catches the
		// rest.
		occupancy: metrics.NewHistogram(metrics.LinearBuckets(1<<10, 16)...),
	}
	if cfg.Dir != "" {
		if err := c.initDir(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// encode produces the canonical payload of a result: what the disk store
// writes and what the byte budget charges. JSON of core.Result round-trips
// exactly (uint64 counters and shortest-roundtrip float64s), so
// decode(encode(r)) reproduces r's ResultDigest bit-identically.
func encode(res *core.Result) ([]byte, error) { return json.Marshal(res) }

func decode(payload []byte) (*core.Result, error) {
	var r core.Result
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Get returns the cell stored under the digest. The in-memory front is
// consulted first; on miss, the disk store (when enabled) is probed,
// verified against the stored result digest and promoted into memory.
// Corrupt disk entries count as misses (and are expunged) — the caller
// recomputes and Puts the fresh result.
func (c *Cache) Get(digest string) (*core.Result, bool) {
	res, _, ok := c.get(digest)
	return res, ok
}

// GetCtx is Get with telemetry: when the context carries a request trace
// the lookup is recorded as a "cache.get" span whose outcome attribute
// names the serving level ("mem", "disk", "miss"), and disk promotions are
// logged through the context's structured logger.
func (c *Cache) GetCtx(ctx context.Context, digest string) (*core.Result, bool) {
	sp := telemetry.TraceFrom(ctx).StartSpan("cache.get",
		telemetry.A("digest", shortKey(digest)))
	res, source, ok := c.get(digest)
	sp.SetAttr("outcome", source)
	sp.End()
	if source == "disk" {
		tlog.From(ctx).Debug("cache disk promote", tlog.F("digest", shortKey(digest)))
	}
	return res, ok
}

// get is the shared lookup; source reports the serving level ("mem",
// "disk", "miss"). Every hit returns a fresh copy.
func (c *Cache) get(digest string) (*core.Result, string, bool) {
	c.mu.Lock()
	if e, ok := c.entries[digest]; ok {
		c.moveToFront(e)
		res := e.res
		c.stats.Hits++
		c.stats.MemHits++
		c.mu.Unlock()
		return &res, "mem", true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if res, size, ok := c.diskGet(digest); ok {
			c.mu.Lock()
			c.stats.Hits++
			c.stats.DiskHits++
			c.insertLocked(digest, res, size)
			c.mu.Unlock()
			return res, "disk", true
		}
	}

	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, "miss", false
}

// Put stores a copy of a cell under its digest, in memory and (when
// enabled) on disk. Storing an already-resident digest refreshes recency
// only: content under a digest is immutable.
func (c *Cache) Put(digest string, res *core.Result) error {
	payload, err := encode(res)
	if err != nil {
		return err
	}

	c.mu.Lock()
	c.stats.Puts++
	if e, ok := c.entries[digest]; ok {
		c.moveToFront(e)
		c.mu.Unlock()
		return nil
	}
	c.insertLocked(digest, res, int64(len(payload)))
	c.mu.Unlock()

	if c.dir != "" {
		if err := c.diskPut(digest, payload, experiments.ResultDigest(res)); err != nil {
			c.mu.Lock()
			c.stats.DiskErrors++
			c.mu.Unlock()
			return err
		}
		c.mu.Lock()
		c.stats.DiskPuts++
		c.mu.Unlock()
	}
	return nil
}

// insertLocked adds a copy of res under the digest, charged size bytes, and
// evicts LRU entries until the byte budget holds. Caller holds c.mu.
func (c *Cache) insertLocked(digest string, res *core.Result, size int64) {
	if e, ok := c.entries[digest]; ok {
		c.moveToFront(e)
		return
	}
	e := &entry{key: digest, res: *res, size: size}
	c.entries[digest] = e
	c.bytes += size
	c.occupancy.Add(int(size))
	c.pushFront(e)
	for c.bytes > c.budget && c.tail != nil && c.tail != e {
		c.stats.Evictions++
		c.removeLocked(c.tail)
	}
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	c.pushFront(e)
}

func (c *Cache) removeLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// Len returns the number of resident in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the encoded payload bytes charged for resident entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	s.Budget = c.budget
	s.EntryBytesMean = c.occupancy.Mean()
	return s
}

// Register wires the cache into a telemetry registry as a scrape-time
// collector. Every series derives from one Stats() snapshot — a single
// lock pass — so a scrape never observes torn counters (e.g. Hits without
// the matching MemHits/DiskHits split).
func (c *Cache) Register(reg *telemetry.Registry) {
	if c == nil {
		return
	}
	reg.RegisterCollector(func(emit telemetry.Emit) {
		st := c.Stats()
		emit("parrot_cache_lookups_total", "counter", "Cache lookups by serving level.",
			float64(st.MemHits), "level", "mem")
		emit("parrot_cache_lookups_total", "counter", "Cache lookups by serving level.",
			float64(st.DiskHits), "level", "disk")
		emit("parrot_cache_lookups_total", "counter", "Cache lookups by serving level.",
			float64(st.Misses), "level", "miss")
		emit("parrot_cache_puts_total", "counter", "Results stored.", float64(st.Puts))
		emit("parrot_cache_evictions_total", "counter", "In-memory LRU evictions.", float64(st.Evictions))
		emit("parrot_cache_disk_puts_total", "counter", "Results persisted to disk.", float64(st.DiskPuts))
		emit("parrot_cache_disk_errors_total", "counter", "Corrupt/unwritable disk entries.", float64(st.DiskErrors))
		emit("parrot_cache_entries", "gauge", "Resident in-memory entries.", float64(st.Entries))
		emit("parrot_cache_bytes", "gauge", "Encoded payload bytes charged for resident entries.", float64(st.Bytes))
		emit("parrot_cache_budget_bytes", "gauge", "In-memory byte budget.", float64(st.Budget))
		emit("parrot_cache_hit_rate", "gauge", "Hits per lookup.", st.HitRate())
	})
}

// shortKey truncates a content address for span/log attributes.
func shortKey(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
