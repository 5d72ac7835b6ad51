// Command perfbench is the repository's benchmark: one process that sets up
// one named workload, measures it for a fixed time, checks every output it
// produced, and prints its metrics by name with their units.
//
//	go run . --workload matrix-exact --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run. The
// line before it is a detail record: host fingerprint, sample counts,
// check results and diagnostics. README.md describes the workloads and the
// metric → layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// procStart approximates process start: package initialisation runs before
// main, ahead of any set-up work.
var procStart = time.Now()

// metricDef describes one reported metric. Bound applies to end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics a user of the simulator or the daemon sees,
// reported by every workload with --trace 0.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"heap_peak_mb", "MB", "lower", 0.25},
	{"success_frac", "frac", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the metrics of single layers, reported by every workload
// with --trace 1.
var perLayer = []metricDef{
	// Simulator layers, fed in isolation from recorded streams.
	{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.next_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "trace.feed_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "trace.build_ns_per_trace", Unit: "ns", Better: "lower"},
	{Name: "filter.ns_per_bump", Unit: "ns", Better: "lower"},
	{Name: "tpred.ns_per_segment", Unit: "ns", Better: "lower"},
	{Name: "tcache.ns_per_lookup", Unit: "ns", Better: "lower"},
	{Name: "branch.ns_per_branch", Unit: "ns", Better: "lower"},
	{Name: "mem.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "ooo.ns_per_uop", Unit: "ns", Better: "lower"},
	{Name: "ooo.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "opt.us_per_trace", Unit: "us", Better: "lower"},
	{Name: "energy.us_per_run", Unit: "us", Better: "lower"},
	{Name: "core.ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "core.unattributed_frac", Unit: "frac", Better: "lower"},
	{Name: "core.reset_us", Unit: "us", Better: "lower"},
	{Name: "core.sim_mips", Unit: "MIPS", Better: "higher"},
	{Name: "trace.segments", Unit: "count", Better: "lower"},
	{Name: "opt.optimizations", Unit: "count", Better: "lower"},
	{Name: "ooo.uops_dispatched", Unit: "count", Better: "lower"},
	{Name: "ooo.cycles", Unit: "count", Better: "lower"},
	// Serve layers, re-issuing the workload's seeded requests.
	{Name: "client.run_us", Unit: "us", Better: "lower"},
	{Name: "api.handler_us", Unit: "us", Better: "lower"},
	{Name: "client.transport_us", Unit: "us", Better: "lower"},
	{Name: "workload.by_name_us", Unit: "us", Better: "lower"},
	{Name: "experiments.spec_digest_us", Unit: "us", Better: "lower"},
	{Name: "sched.submit_us", Unit: "us", Better: "lower"},
	{Name: "cache.get_us", Unit: "us", Better: "lower"},
	{Name: "cache.put_us", Unit: "us", Better: "lower"},
	{Name: "sched.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sim_run_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.hit", Unit: "count", Better: "higher"},
	{Name: "sched.exact", Unit: "count", Better: "lower"},
	{Name: "sched.replayed", Unit: "count", Better: "lower"},
	{Name: "cache.hit_rate", Unit: "frac", Better: "higher"},
	{Name: "cache.bytes_mb", Unit: "MB", Better: "lower"},
	// Go runtime, over the workload's timed phase.
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	// The benchmark's own instrumentation.
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "bench.latency_p99_ms", Unit: "ms", Better: "lower"},
}

// workloadDef is one named workload.
type workloadDef struct {
	Name string
	Why  string
	run  func(p params) *outcome
}

var workloads = []workloadDef{
	{"matrix-exact", "the full 44x7 paper matrix at 50k insts on fresh machines: simulator layers do all the work, serve layers none", runMatrix},
	{"serve-warm", "repeats of 308 cells already cached in parrotd over loopback: the cache-hit path does all the work, the simulator none", runServeWarm},
	{"serve-mixed", "one request in five is a never-seen spec, the rest cache hits: exercises queueing, sim.run and cache.put beside the hit path", runServeMixed},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// record is the contract line: the last line on stdout.
type record struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the line printed just before the record: everything a reader
// needs to interpret the numbers.
type detail struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Samples  map[string]int     `json:"samples"`
	Checks   []check            `json:"checks"`
	Diag     map[string]float64 `json:"diagnostics,omitempty"`
	Spans    []spanSummary      `json:"spans,omitempty"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func main() {
	wl := flag.String("workload", "", "workload name: matrix-exact, serve-warm or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	manifestFlag := flag.Bool("manifest", false, "print BENCHMARK.json for these workloads and metrics, and exit")
	flag.Parse()

	if *manifestFlag {
		b, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}

	w, ok := findWorkload(*wl)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *wl, *seconds, *traceFlag)
		os.Exit(2)
	}
	p := defaultParams(*seed, *seconds, *traceFlag == 1)
	out := w.run(p)
	if err := emit(os.Stdout, w.Name, p, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the detail line and the record. A run that failed a check
// prints a record with correct=false and no metrics, and returns an error.
func emit(f io.Writer, name string, p params, out *outcome) error {
	d := detail{
		Workload: name, Seed: p.seed, Seconds: p.seconds, Trace: p.trace,
		Host: hostFingerprint(), Samples: out.samples, Checks: out.checks,
		Diag: out.diag, Spans: out.spans,
	}
	rec := record{Correct: out.ok(), Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	if rec.Attempted < 1 {
		rec.Attempted = 1
		rec.Failed = 1
		rec.Correct = false
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	for k, v := range d.Diag {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(d.Diag, k)
		}
	}
	var missing []string
	if rec.Correct {
		for _, m := range defs {
			v, ok := out.metrics[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				missing = append(missing, m.Name)
				continue
			}
			rec.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			d.Checks = append(d.Checks, check{Name: "every metric measured and finite", OK: false, Detail: fmt.Sprint(missing)})
			rec.Correct = false
			rec.Metrics = map[string]value{}
		}
	}
	dj, err := json.Marshal(map[string]detail{"perfbench": d})
	if err != nil {
		return err
	}
	rj, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s\n%s\n", dj, rj)
	if !rec.Correct {
		return fmt.Errorf("%s: output checks failed", name)
	}
	return nil
}

// runSeconds is the timed-phase length the manifest asks runs to use.
const runSeconds = 20

// manifest is BENCHMARK.json; field order is the file's key order.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifestJSON renders BENCHMARK.json from the definitions above.
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
