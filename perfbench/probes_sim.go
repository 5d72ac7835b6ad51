package main

import (
	"fmt"
	"runtime"
	"time"

	"parrot/internal/branch"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/energy"
	"parrot/internal/filter"
	"parrot/internal/isa"
	"parrot/internal/mem"
	"parrot/internal/obs"
	"parrot/internal/ooo"
	"parrot/internal/opt"
	"parrot/internal/tcache"
	"parrot/internal/tpred"
	"parrot/internal/trace"
	"parrot/internal/workload"
)

// energySink keeps the energy probe's results live.
var energySink float64

// simProbes times each simulator layer fed in isolation, then the whole
// machine in situ over the same (model, app) cells, and reports how much of
// the in-situ time the isolated layers account for. Inputs are fixed (the
// roster at probeInsts instructions per app), so the event counts repeat
// exactly on every run and every seed.
func simProbes(p params, o *outcome) {
	apps := p.roster()
	models := config.All()
	n := p.probeInsts
	warm := int(float64(n) * core.WarmupFraction)

	var genT time.Duration
	for _, a := range apps {
		t := time.Now()
		workload.Generate(a)
		genT += time.Since(t)
	}
	o.metrics["workload.generate_ms"] = float64(genT) / 1e6 / float64(len(apps))

	// Record each app's stream once; every later layer is fed from it.
	streams := make([][]workload.DynInst, len(apps))
	var nextT time.Duration
	insts := 0
	for i, a := range apps {
		s := workload.NewStream(workload.GenerateCached(a), n)
		buf := make([]workload.DynInst, 0, n)
		t := time.Now()
		for {
			d, ok := s.Next()
			if !ok {
				break
			}
			buf = append(buf, d)
		}
		nextT += time.Since(t)
		streams[i] = buf
		insts += len(buf)
	}
	o.metrics["workload.next_ns_per_inst"] = div(float64(nextT), insts)

	var feedT time.Duration
	segs := make([][]trace.Segment, len(apps))
	for i := range apps {
		feedT += timeFeed(streams[i])
		segs[i] = recordSegments(streams[i])
	}
	o.metrics["trace.feed_ns_per_inst"] = div(float64(feedT), insts)

	// Record, untimed, the calls each cell's trace front end makes: one
	// run of the machine itself with a recorder attached, read back off the
	// probe bus. The machine is reset between cells as the matrix does.
	pool := core.NewPool()
	calls := make([][]*cellCalls, len(models))
	recorded := make([][]*core.Result, len(models))
	var readErrs int
	var firstErr error
	for mi, m := range models {
		mc := pool.Get(m)
		for ai, a := range apps {
			rec := obs.NewRecorder(obs.Options{})
			mc.Attach(rec)
			r := mc.RunSourceWarm(workload.NewStream(workload.GenerateCached(a), n), a, warm)
			pool.Put(mc)
			mc = pool.Get(m)
			c, err := readCalls(m, rec.Bus, segs[ai])
			if err != nil {
				readErrs++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s/%s: %w", m.ID, a.Name, err)
				}
			}
			calls[mi] = append(calls[mi], c)
			recorded[mi] = append(recorded[mi], r)
		}
		pool.Put(mc)
	}
	o.check("probe bus holds every segment of every cell", readErrs == 0, "%d cells unreadable, first: %v", readErrs, firstErr)

	// In situ: the whole machine over the same cells, one machine per
	// model reset between apps as the matrix does, from a heap cleared of
	// the recorders.
	runtime.GC()
	results := make([][]*core.Result, len(models))
	var insituT, resetT time.Duration
	resets := 0
	var segments, optimizations, dispatched, cycles uint64
	for mi, m := range models {
		mc := pool.Get(m)
		for _, a := range apps {
			src := workload.NewStream(workload.GenerateCached(a), n)
			t := time.Now()
			r := mc.RunSourceWarm(src, a, warm)
			insituT += time.Since(t)
			results[mi] = append(results[mi], r)
			segments += r.HotSegments + r.ColdSegments
			optimizations += r.Optimizations
			dispatched += r.UopsDispatched
			cycles += r.Cycles

			t = time.Now()
			pool.Put(mc)
			mc = pool.Get(m)
			resetT += time.Since(t)
			resets++
		}
		pool.Put(mc)
	}
	cellInsts := insts * len(models)
	o.metrics["core.ns_per_inst"] = div(float64(insituT), cellInsts)
	o.metrics["core.reset_us"] = div(float64(resetT)/1e3, resets)
	o.metrics["trace.segments"] = float64(segments)
	o.metrics["opt.optimizations"] = float64(optimizations)
	o.metrics["ooo.uops_dispatched"] = float64(dispatched)
	o.metrics["ooo.cycles"] = float64(cycles)
	if readErrs > 0 {
		return
	}

	// Isolated layers, per cell, each fed the calls its cell recorded.
	var tot layerTally
	var off []string
	var bus, res [4]uint64 // hot segments, cold segments, builds, optimizations
	for mi, m := range models {
		for ai, a := range apps {
			c, r := calls[mi][ai], results[mi][ai]
			lt, diverged := feedCell(m, segs[ai], c, r)
			tot.add(lt)
			if diverged != "" {
				off = append(off, fmt.Sprintf("%s/%s: %s", m.ID, a.Name, diverged))
			}
			if rr := recorded[mi][ai]; rr.HotSegments != r.HotSegments || rr.ColdSegments != r.ColdSegments ||
				rr.TraceBuilds != r.TraceBuilds || rr.Optimizations != r.Optimizations || rr.Cycles != r.Cycles {
				off = append(off, fmt.Sprintf("%s/%s: recorded run differs from the timed run", m.ID, a.Name))
			}
			if m.TraceCache {
				for k, v := range [4]uint64{c.mHot, c.mCold, c.mBuilds, c.mOpts} {
					bus[k] += v
				}
				for k, v := range [4]uint64{r.HotSegments, r.ColdSegments, r.TraceBuilds, r.Optimizations} {
					res[k] += v
				}
			}
		}
	}
	if bus != res {
		off = append(off, fmt.Sprintf("measured-window bus counts %v, core.Result counts %v "+
			"(hot segments, cold segments, builds, optimizations)", bus, res))
	}
	for k, name := range []string{"hot_segments", "cold_segments", "builds", "optimizations"} {
		o.diag["probe_bus_over_result_"+name] = div(float64(bus[k]), int(res[k]))
	}
	first := ""
	if len(off) > 0 {
		first = off[0]
	}
	o.check("isolated layer replays match the machine exactly", len(off) == 0, "%d mismatches, first: %s", len(off), first)

	o.metrics["trace.build_ns_per_trace"] = div(float64(tot.buildT), tot.buildN)
	o.metrics["filter.ns_per_bump"] = div(float64(tot.filterT), tot.filterN)
	o.metrics["tpred.ns_per_segment"] = div(float64(tot.tpredT), tot.tpredN)
	o.metrics["tcache.ns_per_lookup"] = div(float64(tot.tcacheT), tot.tcacheN)
	o.metrics["branch.ns_per_branch"] = div(float64(tot.branchT), tot.branchN)
	o.metrics["mem.ns_per_access"] = div(float64(tot.memT), tot.memN)
	o.metrics["ooo.ns_per_uop"] = div(float64(tot.oooT), tot.oooUops)
	o.metrics["ooo.ns_per_cycle"] = div(float64(tot.oooT), tot.oooCycles)
	o.metrics["opt.us_per_trace"] = div(float64(tot.optT)/1e3, tot.optN)
	o.metrics["energy.us_per_run"] = div(float64(tot.energyT)/1e3, tot.energyN)

	// The stream and the selector run once per app here but once per cell
	// in situ.
	isolated := float64(len(models))*float64(nextT+feedT) + float64(tot.sum())
	o.metrics["core.unattributed_frac"] = 1 - isolated/float64(insituT)
	o.samples["probe_cells"] = len(models) * len(apps)
	o.samples["probe_insts_per_cell"] = n
	o.diag["probe_isolated_ms"] = isolated / 1e6
	o.diag["probe_insitu_ms"] = float64(insituT) / 1e6
}

func div(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// timeFeed times Selector.Feed (and Flush) over a recorded stream, handing
// segment storage back as the machine does.
func timeFeed(stream []workload.DynInst) time.Duration {
	sel := trace.NewSelector()
	t := time.Now()
	for j := range stream {
		out := sel.Feed(&stream[j])
		for k := range out {
			sel.Recycle(&out[k])
		}
	}
	out := sel.Flush()
	for k := range out {
		sel.Recycle(&out[k])
	}
	return time.Since(t)
}

// recordSegments returns private copies of the stream's selection segments.
func recordSegments(stream []workload.DynInst) []trace.Segment {
	sel := trace.NewSelector()
	var segs []trace.Segment
	keep := func(out []trace.Segment) {
		for _, s := range out {
			s.Insts = append([]workload.DynInst(nil), s.Insts...)
			segs = append(segs, s)
		}
	}
	for j := range stream {
		keep(sel.Feed(&stream[j]))
	}
	keep(sel.Flush())
	return segs
}

// layerTally sums isolated layer time and events.
type layerTally struct {
	buildT, filterT, tpredT, tcacheT, branchT, memT, oooT, optT, energyT time.Duration
	buildN, filterN, tpredN, tcacheN, branchN, memN, optN, energyN       int
	oooUops, oooCycles                                                   int
}

func (t *layerTally) add(o layerTally) {
	t.buildT += o.buildT
	t.filterT += o.filterT
	t.tpredT += o.tpredT
	t.tcacheT += o.tcacheT
	t.branchT += o.branchT
	t.memT += o.memT
	t.oooT += o.oooT
	t.optT += o.optT
	t.energyT += o.energyT
	t.buildN += o.buildN
	t.filterN += o.filterN
	t.tpredN += o.tpredN
	t.tcacheN += o.tcacheN
	t.branchN += o.branchN
	t.memN += o.memN
	t.optN += o.optN
	t.energyN += o.energyN
	t.oooUops += o.oooUops
	t.oooCycles += o.oooCycles
}

func (t *layerTally) sum() time.Duration {
	return t.buildT + t.filterT + t.tpredT + t.tcacheT + t.branchT + t.memT + t.oooT + t.optT + t.energyT
}

// Trace-cache call kinds.
const (
	tcLookup uint8 = iota
	tcProbe
	tcInsert
)

// tcOp is one recorded trace-cache call.
type tcOp struct {
	kind uint8
	key  uint64
	tr   *trace.Trace
}

// blazeOp is one recorded blazing-filter call: a bump, or a forget when
// the optimizer was busy and turned a promotion away.
type blazeOp struct {
	key    uint64
	forget bool
}

// dispatchItem is one recorded uop bound for an engine.
type dispatchItem struct {
	u    *isa.Uop
	addr uint64
	last bool
}

// memAccess is one recorded hierarchy call.
type memAccess struct {
	addr uint64
	kind uint8 // 0 instruction fetch, 1 load, 2 store
}

// cellCalls is what one cell's trace front end did, read off the probe bus
// of a run of the machine: which segments ran hot, and the calls into the
// trace predictor, the trace cache, both filters, the builder and the
// optimizer, in the machine's order. It also holds the outcomes those calls
// had, which the isolated replays must reproduce.
type cellCalls struct {
	hot      []bool // per segment: ran on the hot pipeline
	fallback []bool // per segment: no confident trace prediction
	tpKeys   []uint64
	tcOps    []tcOp
	hotBumps []uint64
	blazeOps []blazeOp
	builds   []int          // segment index of each hot-filter promotion
	opts     []*trace.Trace // one unoptimized copy per optimizer run

	tpCorrect, tcHits, hotPromotes, blazePromotes int

	// Measured-window counts, comparable with core.Result.
	mHot, mCold, mBuilds, mOpts uint64
}

// readCalls turns a cell's probe-bus events into its front-end calls.
// segs is the cell's selection output; the bus must name the same segments
// in the same order. Trace-cache residency and each trace's optimized flag
// are followed from the bus's insert, evict and optimize events.
func readCalls(m config.Model, bus *obs.Bus, segs []trace.Segment) (*cellCalls, error) {
	if bus.Dropped > 0 {
		return nil, fmt.Errorf("%d events dropped", bus.Dropped)
	}
	c := &cellCalls{}
	resident := map[uint64]*trace.Trace{}
	optimized := map[uint64]bool{}
	seg := -1
	measured, fallback := false, false
	var err error
	var forget *blazeOp // a promotion not yet followed by an optimization
	settle := func() {
		if forget != nil {
			c.blazeOps = append(c.blazeOps, *forget)
			forget = nil
		}
	}
	bus.Each(func(e *obs.Event) {
		if err != nil {
			return
		}
		switch e.Kind {
		case obs.KMeasureStart:
			measured = true
		case obs.KTPred:
			c.tpKeys = append(c.tpKeys, e.B)
			if e.Lane == 1 {
				c.tpCorrect++
			}
			fallback = e.A == 0
		case obs.KTCHit, obs.KTCMiss:
			c.tcOps = append(c.tcOps, tcOp{kind: tcLookup, key: e.A})
			if e.Kind == obs.KTCHit {
				c.tcHits++
			}
		case obs.KSegment:
			settle()
			seg++
			if seg >= len(segs) || segs[seg].TID.Key() != e.A {
				err = fmt.Errorf("bus segment %d is not the selector's", seg)
				return
			}
			hot := e.Lane == 1
			c.hot = append(c.hot, hot)
			c.fallback = append(c.fallback, fallback)
			fallback = false
			if measured {
				if hot {
					c.mHot++
				} else {
					c.mCold++
				}
			}
			switch {
			case !m.TraceCache:
			case !hot:
				c.tcOps = append(c.tcOps, tcOp{kind: tcProbe, key: e.A})
				if resident[e.A] == nil {
					c.hotBumps = append(c.hotBumps, e.A)
				}
			case m.Optimize && !optimized[e.A]:
				c.blazeOps = append(c.blazeOps, blazeOp{key: e.A})
			}
		case obs.KHotPromote:
			c.hotPromotes++
			c.builds = append(c.builds, seg)
			if measured {
				c.mBuilds++
			}
		case obs.KBlazePromote:
			c.blazePromotes++
			forget = &blazeOp{key: e.A, forget: true}
		case obs.KOptimize:
			forget = nil
			c.opts = append(c.opts, trace.Build(&segs[seg]))
			optimized[e.A] = true
			if measured {
				c.mOpts++
			}
		case obs.KTCEvict:
			delete(resident, e.A)
		case obs.KTCInsert:
			if e.Lane == 0 { // a fresh build; lane 1 is a write-back
				resident[e.A] = trace.Build(&segs[seg])
				optimized[e.A] = false
			}
			c.tcOps = append(c.tcOps, tcOp{kind: tcInsert, tr: resident[e.A]})
		}
	})
	settle()
	if err == nil && seg+1 != len(segs) {
		err = fmt.Errorf("bus has %d segments, the selector %d", seg+1, len(segs))
	}
	return c, err
}

// feedCell replays each layer's recorded calls for one cell alone, on a
// fresh instance of that layer, and times the replay. It returns a
// description of the first way a replay's outcomes differ from the
// machine's, or "" when they all agree.
func feedCell(m config.Model, segs []trace.Segment, c *cellCalls, res *core.Result) (layerTally, string) {
	var lt layerTally
	var diverged []string
	expect := func(name string, got, want int) {
		if got != want {
			diverged = append(diverged, fmt.Sprintf("%s %d, machine %d", name, got, want))
		}
	}
	if m.TraceCache {
		tp := tpred.New(m.TPredEntries)
		correct := 0
		t := time.Now()
		for _, key := range c.tpKeys {
			pred, ok := tp.Predict()
			tp.Train(key, pred, ok)
			if ok && pred == key {
				correct++
			}
		}
		lt.tpredT, lt.tpredN = time.Since(t), len(c.tpKeys)
		expect("tpred correct", correct, c.tpCorrect)

		tc := tcache.New(m.TCFrames, m.TCWays)
		hits := 0
		t = time.Now()
		for _, op := range c.tcOps {
			switch op.kind {
			case tcLookup:
				if _, hit := tc.Lookup(op.key); hit {
					hits++
				}
			case tcProbe:
				tc.Probe(op.key)
			default:
				tc.Insert(op.tr)
			}
		}
		lt.tcacheT = time.Since(t)
		lt.tcacheN = len(c.tcOps) - len(c.builds) - len(c.opts)
		expect("tcache hits", hits, c.tcHits)

		hotF := filter.New(m.HotEntries, m.HotWays, m.HotThreshold)
		var blazeF *filter.CounterCache
		if m.Optimize {
			blazeF = filter.New(m.BlazeEntries, m.BlazeWays, m.BlazeThreshold)
		}
		hotP, blazeP := 0, 0
		t = time.Now()
		for _, key := range c.hotBumps {
			if _, promoted := hotF.Bump(key); promoted {
				hotP++
			}
		}
		for _, op := range c.blazeOps {
			if op.forget {
				blazeF.Forget(op.key)
			} else if _, promoted := blazeF.Bump(op.key); promoted {
				blazeP++
			}
		}
		lt.filterT, lt.filterN = time.Since(t), len(c.hotBumps)+len(c.blazeOps)
		expect("hot promotions", hotP, c.hotPromotes)
		expect("blaze promotions", blazeP, c.blazePromotes)

		into := &trace.Trace{}
		t = time.Now()
		for _, i := range c.builds {
			trace.BuildInto(into, &segs[i])
		}
		lt.buildT, lt.buildN = time.Since(t), len(c.builds)

		if m.Optimize {
			optz := opt.New(m.OptConfig)
			t = time.Now()
			for _, tr := range c.opts {
				optz.Optimize(tr)
			}
			lt.optT, lt.optN = time.Since(t), len(c.opts)
		}
	}

	// Cold segments take the branch predictor and the instruction cache;
	// hot ones train the predictor; a segment with no confident trace
	// prediction first reads the predictor for its fallback lookup. Every
	// memory uop reaches the data side.
	type bpCall struct {
		d    *workload.DynInst
		kind uint8 // 0 predict and train, 1 update, 2 predict
	}
	var branches []bpCall
	var accesses []memAccess
	var coldItems, hotItems []dispatchItem
	lastLine := ^uint64(0)
	for i := range segs {
		hot := c.hot[i]
		if c.fallback[i] {
			for j := range segs[i].Insts {
				if d := &segs[i].Insts[j]; d.Inst.Kind == isa.KindBranch {
					branches = append(branches, bpCall{d, 2})
				}
			}
		}
		for j := range segs[i].Insts {
			d := &segs[i].Insts[j]
			in := d.Inst
			if in.Kind == isa.KindBranch {
				kind := uint8(0)
				if hot {
					kind = 1
				}
				branches = append(branches, bpCall{d, kind})
			}
			if !hot {
				if line := in.PC &^ 63; line != lastLine {
					accesses = append(accesses, memAccess{addr: in.PC})
					lastLine = line
				}
			}
			for k := range in.Uops {
				u := &in.Uops[k]
				if u.Op.IsMem() {
					kind := uint8(1)
					if u.Op == isa.OpStore {
						kind = 2
					}
					accesses = append(accesses, memAccess{addr: d.MemAddr, kind: kind})
				}
				it := dispatchItem{u: u, last: k == len(in.Uops)-1}
				if u.Op.IsMem() {
					it.addr = d.MemAddr
				}
				if hot && m.Split {
					hotItems = append(hotItems, it)
				} else {
					coldItems = append(coldItems, it)
				}
			}
		}
	}

	hist := m.BPHistBits
	if hist == 0 {
		hist = 12
	}
	bp := branch.NewPredictor(m.BPEntries, hist)
	t := time.Now()
	for _, b := range branches {
		switch b.kind {
		case 0:
			bp.PredictAndTrain(b.d.Inst.PC, b.d.Taken)
		case 1:
			bp.Update(b.d.Inst.PC, b.d.Taken)
		default:
			bp.Predict(b.d.Inst.PC)
		}
	}
	lt.branchT, lt.branchN = time.Since(t), len(branches)

	h := mem.NewHierarchy(m.Mem)
	t = time.Now()
	for _, a := range accesses {
		switch a.kind {
		case 0:
			h.FetchInst(a.addr)
		default:
			h.AccessData(a.addr, a.kind == 2)
		}
	}
	lt.memT, lt.memN = time.Since(t), len(accesses)

	// The engine runs with an ideal data cache: the hierarchy's cost is
	// the mem probe's.
	t = time.Now()
	cycles := feedEngine(ooo.New(m.Core, nil), coldItems)
	if len(hotItems) > 0 {
		cycles += feedEngine(ooo.New(m.HotCore, nil), hotItems)
	}
	lt.oooT = time.Since(t)
	lt.oooUops, lt.oooCycles = len(coldItems)+len(hotItems), int(cycles)

	const energyReps = 50
	em := energy.NewModel(m.EnergyParams())
	t = time.Now()
	for r := 0; r < energyReps; r++ {
		energySink += em.Energy(&res.Counts)
		b := em.Breakdown(&res.Counts)
		energySink += b[0]
	}
	// One run's worth, as the machine computes energy once per cell.
	lt.energyT, lt.energyN = time.Since(t)/energyReps, 1
	if len(diverged) > 0 {
		return lt, diverged[0]
	}
	return lt, ""
}

// feedEngine dispatches the uops in order at the engine's width, one Cycle
// per dispatch group, drains it and returns the cycles it took.
func feedEngine(e *ooo.Engine, items []dispatchItem) uint64 {
	w := e.Config().Width
	i := 0
	for i < len(items) {
		for k := 0; k < w && i < len(items) && e.CanDispatch(); k++ {
			e.Dispatch(items[i].u, items[i].addr, items[i].last, false)
			i++
		}
		e.Cycle()
	}
	e.Drain()
	return e.Now()
}
