package main

import (
	"bytes"
	"runtime"
	"strconv"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/workload"
)

// runMatrix is the matrix-exact workload: experiments.Run over the paper
// matrix, pass after pass, each pass on machines freshly built into an
// emptied pool, so no cell can be served by memo replay or a result cache.
func runMatrix(p params) *outcome {
	o := newOutcome()
	apps := p.roster()
	models := config.All()
	prewarm := func() {
		core.DefaultPool.Drain()
		for _, m := range models {
			core.DefaultPool.Prewarm(m, p.workers)
		}
	}
	// The first set-up is the real one; the repetitions re-synthesize the
	// programs without touching the cache the timed passes read. Between
	// passes the pool is prepared again anyway, so the set-up is repeated
	// there, twice per gap.
	var setup setupTimer
	setup.run(func() {
		for _, a := range apps {
			workload.GenerateCached(a)
		}
		prewarm()
	})
	o.diag["setup_wall_s"] = time.Since(procStart).Seconds()
	resetup := func() {
		for i := 0; i < 2; i++ {
			setup.run(func() {
				for _, a := range apps {
					workload.Generate(a)
				}
				prewarm()
			})
		}
	}
	defer func() {
		for len(setup.reps) < p.setupReps {
			resetup()
		}
		setup.report(o)
	}()

	heap := startHeapSampler()
	defer heap.Stop()

	if !p.trace {
		ph := matrixPhase(p, apps, models, nil, p.seconds, resetup, heap, o)
		ph.verify(p, o)
		ph.report(o)
		return o
	}

	// Traced run: an untraced half, then a traced half of equal length; the
	// throughput ratio is the tracing overhead.
	rt0 := readRuntime()
	plain := matrixPhase(p, apps, models, nil, p.seconds/2, resetup, heap, o)
	rt1 := readRuntime()
	tr := newTracer()
	traced := matrixPhase(p, apps, models, tr, p.seconds/2, resetup, heap, o)
	plain.verify(p, o)
	traced.verify(p, o)
	o.putRuntime(rt0, rt1, plain.cells)
	o.metrics["bench.trace_overhead_frac"] = 1 - traced.throughput()/plain.throughput()
	o.metrics["bench.latency_p99_ms"] = traced.percentile(0.99)
	o.metrics["core.sim_mips"] = plain.simMIPS()
	o.diag["throughput_untraced_per_s"] = plain.throughput()
	o.diag["throughput_traced_per_s"] = traced.throughput()
	o.spans = tr.summary()
	core.DefaultPool.Drain()

	simProbes(p, o)
	serveProbesFresh(p, o)
	return o
}

// matrixPass is one timed experiments.Run.
type matrixPass struct {
	wall    time.Duration
	lats    []float64 // per-cell latency, ms
	heapMB  float64
	cells   int
	simInst int
}

type matrixResult struct {
	passes []matrixPass
	cells  int

	// Output checks, summed over passes.
	badDigests int
	lastDigest string
	missing    int
	replays    uint64
}

// verify adds the phase's output checks to the outcome.
func (m matrixResult) verify(p params, o *outcome) {
	o.check("matrix digest", m.badDigests == 0, "%d of %d passes differ; last %.16s, want %.16s",
		m.badDigests, len(m.passes), m.lastDigest, p.matrixDigest)
	o.check("matrix cells present", m.missing == 0, "%d missing over %d passes", m.missing, len(m.passes))
	o.check("zero replayed cells", m.replays == 0, "%d runs replayed over %d passes", m.replays, len(m.passes))
}

func (m matrixResult) perPass(f func(matrixPass) float64) float64 {
	var xs []float64
	for _, ps := range m.passes {
		xs = append(xs, f(ps))
	}
	return median(xs)
}

func (m matrixResult) throughput() float64 {
	return m.perPass(func(ps matrixPass) float64 { return float64(ps.cells) / ps.wall.Seconds() })
}

func (m matrixResult) simMIPS() float64 {
	return m.perPass(func(ps matrixPass) float64 { return float64(ps.simInst) / ps.wall.Seconds() / 1e6 })
}

func (m matrixResult) percentile(q float64) float64 {
	return m.perPass(func(ps matrixPass) float64 { return percentile(append([]float64(nil), ps.lats...), q) })
}

// report stores the end-to-end metrics: medians over passes.
func (m matrixResult) report(o *outcome) {
	o.metrics["throughput_per_s"] = m.throughput()
	o.metrics["latency_p50_ms"] = m.percentile(0.50)
	o.metrics["latency_p95_ms"] = m.percentile(0.95)
	o.metrics["heap_peak_mb"] = m.perPass(func(ps matrixPass) float64 { return ps.heapMB })
	o.metrics["success_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.samples["passes"] = len(m.passes)
	o.samples["latency_per_pass"] = len(m.passes[0].lats)
	o.samples["latency_total"] = m.cells
	o.diag["sim_mips"] = m.simMIPS()
	o.diag["latency_p99_ms"] = m.percentile(0.99)
}

// matrixPhase runs passes until their summed wall time reaches seconds
// (at least one pass). Re-preparing the pool between passes (resetup) is
// not part of the passes' time.
func matrixPhase(p params, apps []workload.Profile, models []config.Model, tr *tracer,
	seconds float64, resetup func(), heap *heapSampler, o *outcome) matrixResult {
	var res matrixResult
	var timed time.Duration
	for len(res.passes) == 0 || timed.Seconds() < seconds {
		ps, ok := matrixOnce(p, apps, models, tr, heap, &res)
		res.passes = append(res.passes, ps)
		res.cells += ps.cells
		timed += ps.wall
		o.attempted += int64(ps.cells)
		if !ok {
			o.failed += int64(ps.cells)
		}
		resetup()
	}
	return res
}

func matrixOnce(p params, apps []workload.Profile, models []config.Model, tr *tracer,
	heap *heapSampler, acc *matrixResult) (matrixPass, bool) {
	cells := len(apps) * len(models)
	ps := matrixPass{cells: cells, simInst: cells * p.matrixInsts, lats: make([]float64, 0, cells)}
	// A cell's latency runs from the previous completion on the same worker
	// goroutine (or the pass start) to its own completion; Progress
	// callbacks run on the completing worker, serialized.
	last := map[uint64]time.Duration{}
	var spans [][2]time.Duration
	// Start from a collected heap so set-up garbage is not charged here.
	runtime.GC()
	progress := func(done, total int, elapsed, eta time.Duration) {
		g := goid()
		ps.lats = append(ps.lats, float64(elapsed-last[g])/1e6)
		if tr != nil {
			spans = append(spans, [2]time.Duration{last[g], elapsed})
		}
		last[g] = elapsed
	}
	start := time.Now()
	res := experiments.Run(experiments.Config{
		Insts: p.matrixInsts, Apps: apps, Models: models,
		Parallelism: p.workers, Progress: progress,
	})
	end := time.Now()
	ps.wall = end.Sub(start)
	ps.heapMB = heap.peakMB(start, end)

	if tr != nil {
		pass := tr.add("experiments.Run", 0, start, end)
		for _, s := range spans {
			tr.add("experiments.cell", pass, start.Add(s[0]), start.Add(s[1]))
		}
	}

	got := res.Digest()
	acc.lastDigest = got
	digestOK := got == p.matrixDigest
	if !digestOK {
		acc.badDigests++
	}
	missing := 0
	for _, m := range models {
		for _, a := range apps {
			if res.Get(m.ID, a.Name) == nil {
				missing++
			}
		}
	}
	acc.missing += missing
	replays := pooledReplays(models, p.workers)
	acc.replays += replays
	return ps, digestOK && missing == 0 && replays == 0
}

// pooledReplays takes the pass's machines back out of the default pool and
// sums their memo replays; the caller drains the pool afterwards.
func pooledReplays(models []config.Model, perModel int) uint64 {
	var n uint64
	for _, m := range models {
		for k := 0; k < perModel; k++ {
			n += core.DefaultPool.Get(m).MemoStats().RunsReplayed
		}
	}
	return n
}

// goid returns the current goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
