package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/obs"
	"parrot/internal/workload"
)

// tinyParams shrinks every workload to a two-app roster and a fraction of
// a second, so each one runs end to end in the test.
func tinyParams(t *testing.T, trace bool) params {
	t.Helper()
	var apps []workload.Profile
	for _, name := range []string{"gzip", "swim"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("app %s missing from the roster", name)
		}
		apps = append(apps, p)
	}
	p := defaultParams(1, 0.3, trace)
	p.apps = apps
	p.matrixInsts = 3_000
	p.matrixDigest = experiments.Run(experiments.Config{
		Insts: p.matrixInsts, Apps: apps, Memoize: experiments.MemoOff,
	}).Digest()
	p.warmInsts, p.coldInsts, p.coldEvery = 1_000, 2_000, 3
	p.setupReps = 2
	p.window = 100 * time.Millisecond
	p.probeInsts, p.probeReqs = 1_000, 20
	return p
}

// decodeRecord parses the last stdout line and checks its shape.
func decodeRecord(t *testing.T, out string) record {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(raw) != 4 {
		t.Fatalf("record keys = %d, want correct/attempted/failed/metrics", len(raw))
	}
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			p := tinyParams(t, trace)
			out := w.run(p)
			var buf bytes.Buffer
			if err := emit(&buf, w.Name, p, out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, buf.String())
			}
			rec := decodeRecord(t, buf.String())
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
				t.Fatalf("%s trace=%v: record %+v", w.Name, trace, rec)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s",
						w.Name, trace, d.Name, v, ok, d.Unit)
				}
			}
			if !trace && rec.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s = %v", w.Name, rec.Metrics["setup_s"].Value)
			}
		}
	}
}

func TestCorruptedDigestFailsTheRun(t *testing.T) {
	p := tinyParams(t, false)
	p.matrixDigest = strings.Repeat("0", 64)
	out := runMatrix(p)
	var buf bytes.Buffer
	if err := emit(&buf, "matrix-exact", p, out); err == nil {
		t.Fatal("a corrupted expected digest passed the run")
	}
	rec := decodeRecord(t, buf.String())
	if rec.Correct || len(rec.Metrics) != 0 {
		t.Fatalf("failed run reported numbers: %+v", rec)
	}
}

func TestTracedRunsRepeatEventCounts(t *testing.T) {
	counts := []string{"trace.segments", "opt.optimizations", "ooo.uops_dispatched",
		"ooo.cycles", "sched.exact", "sched.replayed"}
	var first map[string]float64
	for i := 0; i < 2; i++ {
		out := runMatrix(tinyParams(t, true))
		if !out.ok() {
			t.Fatalf("traced run %d failed its checks: %+v", i, out.checks)
		}
		if first == nil {
			first = out.metrics
			continue
		}
		for _, name := range counts {
			if out.metrics[name] != first[name] {
				t.Errorf("%s: %v then %v", name, first[name], out.metrics[name])
			}
		}
	}
	if first["trace.segments"] == 0 || first["ooo.cycles"] == 0 {
		t.Fatalf("counts not measured: %v", first)
	}
}

// TestProbeReplayFollowsTheMachine records one cell's front-end calls off
// the probe bus, checks that the isolated replays reproduce the machine's
// decisions, and that a record missing calls is caught.
func TestProbeReplayFollowsTheMachine(t *testing.T) {
	var m config.Model
	for _, c := range config.All() {
		if c.TraceCache && c.Optimize {
			m = c
		}
	}
	app, _ := workload.ByName("swim")
	const n = 6_000
	stream := workload.NewStream(workload.GenerateCached(app), n)
	var insts []workload.DynInst
	for {
		d, ok := stream.Next()
		if !ok {
			break
		}
		insts = append(insts, d)
	}
	segs := recordSegments(insts)

	mc := core.New(m)
	rec := obs.NewRecorder(obs.Options{})
	mc.Attach(rec)
	res := mc.RunSourceWarm(workload.NewStream(workload.GenerateCached(app), n), app, int(n*core.WarmupFraction))
	c, err := readCalls(m, rec.Bus, segs)
	if err != nil {
		t.Fatal(err)
	}
	if c.mBuilds != res.TraceBuilds || c.mOpts != res.Optimizations ||
		c.mHot != res.HotSegments || c.mCold != res.ColdSegments {
		t.Fatalf("bus counts %d/%d/%d/%d, result %d/%d/%d/%d", c.mBuilds, c.mOpts, c.mHot, c.mCold,
			res.TraceBuilds, res.Optimizations, res.HotSegments, res.ColdSegments)
	}
	if c.hotPromotes == 0 || c.blazePromotes == 0 {
		t.Fatalf("cell exercises no promotions: %d hot, %d blaze", c.hotPromotes, c.blazePromotes)
	}
	if _, diverged := feedCell(m, segs, c, res); diverged != "" {
		t.Fatalf("replay diverged from the machine: %s", diverged)
	}
	c.hotBumps = c.hotBumps[:len(c.hotBumps)/2]
	if _, diverged := feedCell(m, segs, c, res); diverged == "" {
		t.Fatal("a record missing half its hot-filter bumps replayed as matching")
	}
	if _, err := readCalls(m, rec.Bus, segs[1:]); err == nil {
		t.Fatal("a bus naming other segments than the selector's was read")
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	ops := []op{
		{end: 10 * time.Millisecond, latency: time.Millisecond},
		{end: 20 * time.Millisecond, latency: time.Millisecond},
		{end: 30 * time.Millisecond, latency: time.Millisecond, failed: true},
	}
	st := summarize(ops, 100*time.Millisecond, 100*time.Millisecond)
	if st.failed != 1 || st.samples != 3 || st.windows != 1 {
		t.Fatalf("summary %+v", st)
	}
	if !math.IsInf(st.p99, 1) {
		t.Fatalf("p99 = %v, want the failed operation to miss it", st.p99)
	}
	if st.p50 != 1 {
		t.Fatalf("p50 = %v ms, want 1", st.p50)
	}
}
