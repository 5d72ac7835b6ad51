package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/api"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/serve/sched"
	"parrot/internal/telemetry"
	"parrot/internal/workload"
)

// stack is one parrotd serving stack (cache + sched + api) behind a
// loopback listener, driven through serve/client as parrotctl does.
type stack struct {
	cache  *cache.Cache
	sched  *sched.Sched
	reg    *telemetry.Registry
	srv    *api.Server
	hs     *http.Server
	cl     *client.Client
	served chan error
}

// newStack starts a stack on a fresh machine pool (so no memo chain of an
// earlier stack can replay) and prewarms the pool as parrotd -prewarm does.
func newStack(workers int) (*stack, error) {
	c, err := cache.New(cache.Config{})
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	reg := telemetry.NewRegistry()
	pool := core.NewPool()
	sc := sched.New(sched.Config{Workers: workers, Cache: c, Pool: pool, Registry: reg})
	srv := api.New(api.Config{Cache: c, Sched: sc, Registry: reg})
	s := &stack{
		cache: c, sched: sc, reg: reg, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		cl:     client.New("http://"+ln.Addr().String(), client.WithRetry(client.RetryPolicy{MaxAttempts: 1})),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for _, m := range config.All() {
		pool.Prewarm(m, workers)
	}
	return s, nil
}

// close shuts the listener and the worker fleet down and waits for both.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if derr := s.sched.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// queueWait returns the summed interactive queue wait (seconds) and the
// number of jobs behind it, from the scheduler's own histogram.
func (s *stack) queueWait() (sum float64, n uint64) {
	h := s.reg.Histogram("parrot_queue_wait_seconds",
		"Time jobs spend queued before a worker pops them, by priority class.",
		nil, "class", "interactive")
	return h.Sum(), h.Count()
}

// cell is one requestable simulation cell and the answers recorded for it.
type cell struct {
	spec      experiments.RunSpec
	req       proto.RunRequest
	digest    string // requested RunSpec digest, computed by the benchmark
	resDigest string // result digest served when the cell was first simulated
}

func newCell(m config.Model, app workload.Profile, insts int) cell {
	spec := experiments.RunSpec{Model: m, App: app, Insts: insts}.Normalize()
	return cell{
		spec:   spec,
		req:    proto.RunRequest{Model: string(m.ID), App: app.Name, Insts: insts},
		digest: spec.Digest(),
	}
}

// matrixCells lists every (model, app) cell of the roster at insts.
func matrixCells(apps []workload.Profile, insts int) []cell {
	var out []cell
	for _, m := range config.All() {
		for _, a := range apps {
			out = append(out, newCell(m, a, insts))
		}
	}
	return out
}

// populate sends every cell through /v1/run once, from `clients` closed
// loops, and records each served result digest. Every cell must come back
// simulated exactly under the digest that was requested.
func populate(s *stack, cells []cell, clients int) (bad int, firstErr error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(cells); i += clients {
				resp, err := s.cl.Run(context.Background(), cells[i].req)
				if err == nil && (resp.Disposition != "exact" || resp.Digest != cells[i].digest) {
					err = fmt.Errorf("%s/%s: disposition %q digest %.12s, want exact %.12s",
						cells[i].req.Model, cells[i].req.App, resp.Disposition, resp.Digest, cells[i].digest)
				}
				if err != nil {
					mu.Lock()
					bad++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				cells[i].resDigest = resp.ResultDigest
			}
		}(c)
	}
	wg.Wait()
	return bad, firstErr
}

// serveSetup is the serve workloads' set-up: synthesize the roster's
// programs, start a stack, prewarm its pool and fill its cache with every
// cell at the small budget.
type serveSetup struct {
	s          *stack
	cells      []cell
	popWall    time.Duration
	popStats   sched.Stats
	popWaitSum float64
	popWaitN   uint64
}

// setupOnce does the whole serve set-up once. cached says whether the
// programs go through the workload cache (the real set-up) or are
// synthesized afresh (a repetition). It returns the stack even when a
// check fails, for the caller to close.
func setupOnce(p params, cached bool) (*serveSetup, error) {
	apps := p.roster()
	for _, a := range apps {
		if cached {
			workload.GenerateCached(a)
		} else {
			workload.Generate(a)
		}
	}
	s, err := newStack(p.workers)
	if err != nil {
		return nil, fmt.Errorf("serve stack starts: %w", err)
	}
	st := &serveSetup{s: s, cells: matrixCells(apps, p.warmInsts)}
	t := time.Now()
	bad, err := populate(s, st.cells, p.clients)
	st.popWall = time.Since(t)
	if bad > 0 {
		return st, fmt.Errorf("set-up cells simulated exactly under the requested digest: %d bad, first: %w", bad, err)
	}
	st.popStats = s.sched.Stats()
	st.popWaitSum, st.popWaitN = s.queueWait()
	return st, nil
}

// setupServe does the real set-up, timed, and keeps its stack.
func setupServe(p params, o *outcome, setup *setupTimer) (*serveSetup, bool) {
	var st *serveSetup
	var err error
	setup.run(func() { st, err = setupOnce(p, true) })
	o.diag["setup_wall_s"] = time.Since(procStart).Seconds()
	if err != nil {
		o.check("serve set-up", false, "%v", err)
		return st, false
	}
	o.check("set-up cells simulated exactly under the requested digest", true, "%d cells", len(st.cells))
	return st, true
}

// repeatSetup repeats the whole serve set-up n times, timed, each on a
// stack of its own that is shut down afterwards.
func repeatSetup(p params, o *outcome, setup *setupTimer, n int) bool {
	for i := 0; i < n; i++ {
		var st *serveSetup
		var err error
		setup.run(func() { st, err = setupOnce(p, false) })
		if st != nil {
			if cerr := st.s.close(); cerr != nil && err == nil {
				err = fmt.Errorf("serve stack shuts down: %w", cerr)
			}
		}
		if err != nil {
			o.check("repeated serve set-up", false, "%v", err)
			return false
		}
	}
	return true
}

// reqGen yields one client's seeded request sequence. Hits draw from the
// set-up cells; a new spec (one in coldEvery when enabled) reuses a random
// (model, app) at an instruction budget no other request uses.
type reqGen struct {
	rng       *rand.Rand
	cells     []cell
	coldEvery int
	coldInsts int
	client    int
	clients   int
	coldK     int
}

func newReqGens(p params, cells []cell, coldEvery int, tag int64) []*reqGen {
	gens := make([]*reqGen, p.clients)
	for c := range gens {
		gens[c] = &reqGen{
			rng:   rand.New(rand.NewSource(p.seed*1_000_003 + tag*101 + int64(c))),
			cells: cells, coldEvery: coldEvery, coldInsts: p.coldInsts,
			client: c, clients: p.clients,
		}
	}
	return gens
}

// next returns the cell to request and whether it is a new spec.
func (g *reqGen) next() (cell, bool) {
	if g.coldEvery > 0 && g.rng.Intn(g.coldEvery) == 0 {
		base := g.cells[g.rng.Intn(len(g.cells))]
		insts := g.coldInsts + g.client + g.clients*g.coldK
		g.coldK++
		return newCell(base.spec.Model, base.spec.App, insts), true
	}
	return g.cells[g.rng.Intn(len(g.cells))], false
}

// servedCold is a new spec's served result, kept for the in-process
// bit-equality check.
type servedCold struct {
	spec      experiments.RunSpec
	resDigest string
}

// servePhaseResult is one closed-loop timed phase.
type servePhaseResult struct {
	ops              []op
	wall             time.Duration
	start, end       time.Time
	hits, colds      int
	dispHit, dispNew int
	dispReplayed     int
	coldInsts        int
	bad              int
	firstBad         string
	sampled          []servedCold
	statsDelta       sched.Stats
	waitSum          float64
	waitN            uint64
}

// servePhase runs p.clients closed loops for the given time, each sending
// its next request only after the previous one returned, and verifies
// every response against what was requested.
func servePhase(s *stack, p params, gens []*reqGen, seconds float64, tr *tracer) servePhaseResult {
	var res servePhaseResult
	var mu sync.Mutex
	before := s.sched.Stats()
	w0, n0 := s.queueWait()
	// Start from a collected heap so set-up garbage is not charged here.
	runtime.GC()
	res.start = time.Now()
	deadline := res.start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c, g := range gens {
		wg.Add(1)
		go func(c int, g *reqGen) {
			defer wg.Done()
			var local servePhaseResult
			var spans [][2]time.Time
			loopStart := time.Now()
			sampleRng := rand.New(rand.NewSource(int64(c) + 7))
			for time.Now().Before(deadline) {
				want, cold := g.next()
				t0 := time.Now()
				resp, err := s.cl.Run(context.Background(), want.req)
				t1 := time.Now()
				if tr != nil {
					spans = append(spans, [2]time.Time{t0, t1})
				}
				failed := false
				switch {
				case err != nil:
					failed = true
					local.note(err.Error())
				case resp.Digest != want.digest:
					failed = true
					local.note(fmt.Sprintf("served digest %.12s for requested %.12s", resp.Digest, want.digest))
				case cold && resp.Disposition != "exact":
					failed = true
					local.note("new spec served as " + resp.Disposition)
				case !cold && (resp.Disposition != "hit" || resp.ResultDigest != want.resDigest):
					failed = true
					local.note(fmt.Sprintf("repeat served as %s with result %.12s, set-up recorded %.12s",
						resp.Disposition, resp.ResultDigest, want.resDigest))
				}
				if err == nil {
					switch resp.Disposition {
					case "hit":
						local.dispHit++
					case "exact":
						local.dispNew++
					case "replayed":
						local.dispReplayed++
					}
				}
				if cold {
					local.colds++
					local.coldInsts += want.spec.Insts
					if !failed && len(local.sampled) < p.coldSample && sampleRng.Intn(4) == 0 {
						local.sampled = append(local.sampled, servedCold{want.spec, resp.ResultDigest})
					}
				} else {
					local.hits++
				}
				local.ops = append(local.ops, op{end: t1.Sub(res.start), latency: t1.Sub(t0), failed: failed})
			}
			loopEnd := time.Now()
			if tr != nil {
				loop := tr.add("client.loop", 0, loopStart, loopEnd)
				for _, sp := range spans {
					tr.add("client.Run", loop, sp[0], sp[1])
				}
			}
			mu.Lock()
			res.merge(local)
			mu.Unlock()
		}(c, g)
	}
	wg.Wait()
	res.end = time.Now()
	res.wall = res.end.Sub(res.start)
	after := s.sched.Stats()
	res.statsDelta = sched.Stats{
		CacheHits: after.CacheHits - before.CacheHits,
		Completed: after.Completed - before.Completed,
		Replayed:  after.Replayed - before.Replayed,
		Deduped:   after.Deduped - before.Deduped,
		BusyTime:  after.BusyTime - before.BusyTime,
	}
	w1, n1 := s.queueWait()
	res.waitSum, res.waitN = w1-w0, n1-n0
	return res
}

func (r *servePhaseResult) note(msg string) {
	r.bad++
	if r.firstBad == "" {
		r.firstBad = msg
	}
}

func (r *servePhaseResult) merge(o servePhaseResult) {
	r.ops = append(r.ops, o.ops...)
	r.hits += o.hits
	r.colds += o.colds
	r.dispHit += o.dispHit
	r.dispNew += o.dispNew
	r.dispReplayed += o.dispReplayed
	r.coldInsts += o.coldInsts
	r.bad += o.bad
	if r.firstBad == "" {
		r.firstBad = o.firstBad
	}
	r.sampled = append(r.sampled, o.sampled...)
}

// verify adds the phase's output checks to the outcome.
func (r servePhaseResult) verify(o *outcome) {
	o.attempted += int64(len(r.ops))
	o.failed += int64(r.bad)
	o.check("served digests equal requested digests", r.bad == 0, "%d of %d bad, first: %s", r.bad, len(r.ops), r.firstBad)
	d := r.statsDelta
	o.check("disposition counts match the schedule",
		r.dispHit == r.hits && r.dispNew == r.colds &&
			int(d.CacheHits) == r.hits && int(d.Completed) == r.colds && d.Deduped == 0,
		"schedule hit=%d new=%d; served hit=%d exact=%d; sched hits=%d completed=%d deduped=%d",
		r.hits, r.colds, r.dispHit, r.dispNew, d.CacheHits, d.Completed, d.Deduped)
	o.check("zero replayed cells", r.dispReplayed == 0 && d.Replayed == 0,
		"served replayed=%d sched replayed=%d", r.dispReplayed, d.Replayed)
	if r.colds == 0 {
		return
	}
	mismatch := 0
	for _, c := range r.sampled {
		if got := experiments.ResultDigest(core.RunWarm(c.spec.Model, c.spec.App, c.spec.Insts)); got != c.resDigest {
			mismatch++
		}
	}
	o.check("sampled new-spec results bit-equal an in-process core.RunWarm",
		len(r.sampled) > 0 && mismatch == 0, "%d of %d sampled differ", mismatch, len(r.sampled))
}

func (r servePhaseResult) throughput() float64 {
	return summarize(r.ops, r.wall, time.Second).throughput
}

// report stores the end-to-end metrics of an untraced phase.
func (r servePhaseResult) report(p params, o *outcome, heap *heapSampler) {
	ws := summarize(r.ops, r.wall, p.window)
	o.metrics["throughput_per_s"] = ws.throughput
	o.metrics["latency_p50_ms"] = ws.p50
	o.metrics["latency_p95_ms"] = ws.p95
	o.metrics["heap_peak_mb"] = heap.windowPeaksMB(r.start, r.end, ws.windows)
	o.metrics["success_frac"] = float64(len(r.ops)-ws.failed) / float64(len(r.ops))
	o.samples["windows"] = ws.windows
	o.samples["latency_total"] = ws.samples
	o.samples["latency_per_window"] = ws.samples / ws.windows
	o.samples["new_specs"] = r.colds
	o.samples["bit_equal_sample"] = len(r.sampled)
	o.diag["latency_p99_ms"] = ws.p99
	o.diag["sim_mips"] = float64(r.coldInsts) / r.wall.Seconds() / 1e6
}

func runServeWarm(p params) *outcome  { return runServe(p, 0) }
func runServeMixed(p params) *outcome { return runServe(p, p.coldEvery) }

// runServe is the body of both serve workloads; coldEvery = 0 sends
// repeats only.
func runServe(p params, coldEvery int) *outcome {
	o := newOutcome()
	// About half the set-up repetitions run before the timed phase (the
	// first one is the real set-up) and the rest after it.
	var setup setupTimer
	before := (p.setupReps + 1) / 2
	st, ok := setupServe(p, o, &setup)
	if ok {
		ok = repeatSetup(p, o, &setup, before-1)
	}
	if !ok {
		if st != nil {
			_ = st.s.close() // the run already reports failure
		}
		return o
	}
	closeStack := func() {
		if err := st.s.close(); err != nil {
			o.check("serve stack shuts down", false, "%v", err)
		}
	}
	heap := startHeapSampler()
	defer heap.Stop()
	gens := newReqGens(p, st.cells, coldEvery, 1)

	if !p.trace {
		ph := servePhase(st.s, p, gens, p.seconds, nil)
		ph.verify(o)
		ph.report(p, o, heap)
		// The stack goes before the remaining repetitions, so they start
		// from the same state as the first ones: serve-mixed's stack has
		// grown by every new spec of the timed phase.
		closeStack()
		if repeatSetup(p, o, &setup, p.setupReps-len(setup.reps)) {
			setup.report(o)
		}
		return o
	}
	defer closeStack()

	rt0 := readRuntime()
	plain := servePhase(st.s, p, gens, p.seconds/2, nil)
	rt1 := readRuntime()
	tr := newTracer()
	traced := servePhase(st.s, p, gens, p.seconds/2, tr)
	plain.verify(o)
	traced.verify(o)
	o.putRuntime(rt0, rt1, len(plain.ops))
	o.metrics["bench.trace_overhead_frac"] = 1 - traced.throughput()/plain.throughput()
	o.metrics["bench.latency_p99_ms"] = summarize(traced.ops, traced.wall, p.window).p99
	o.diag["throughput_untraced_per_s"] = plain.throughput()
	o.diag["throughput_traced_per_s"] = traced.throughput()
	o.spans = tr.summary()

	// Scheduler-side layers: from the timed phases when they simulated
	// anything, else from the set-up fill.
	if c := plain.statsDelta.Completed + traced.statsDelta.Completed; c > 0 {
		busy := plain.statsDelta.BusyTime + traced.statsDelta.BusyTime
		o.metrics["core.sim_run_ms"] = float64(busy) / 1e6 / float64(c)
		o.metrics["sched.queue_wait_ms"] = (plain.waitSum + traced.waitSum) * 1e3 / float64(plain.waitN+traced.waitN)
		o.metrics["core.sim_mips"] = float64(plain.coldInsts) / plain.wall.Seconds() / 1e6
	} else {
		st.putFill(o)
		o.metrics["core.sim_mips"] = float64(len(st.cells)*p.warmInsts) / st.popWall.Seconds() / 1e6
	}
	o.metrics["sched.hit"] = float64(plain.statsDelta.CacheHits + traced.statsDelta.CacheHits)
	o.metrics["sched.exact"] = float64(plain.statsDelta.Completed + traced.statsDelta.Completed -
		plain.statsDelta.Replayed - traced.statsDelta.Replayed)
	o.metrics["sched.replayed"] = float64(plain.statsDelta.Replayed + traced.statsDelta.Replayed)

	probeGen := newReqGens(p, st.cells, 0, 2)[0]
	serveProbes(st.s, probeGen, p, o)
	simProbes(p, o)
	return o
}

// putFill stores the scheduler-side layer metrics of the set-up fill.
func (st *serveSetup) putFill(o *outcome) {
	c := st.popStats.Completed
	if c == 0 {
		c = 1
	}
	o.metrics["core.sim_run_ms"] = float64(st.popStats.BusyTime) / 1e6 / float64(c)
	n := st.popWaitN
	if n == 0 {
		n = 1
	}
	o.metrics["sched.queue_wait_ms"] = st.popWaitSum * 1e3 / float64(n)
}
