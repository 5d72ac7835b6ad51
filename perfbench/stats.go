package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"parrot/internal/workload"
)

// params sizes one run. defaultParams gives the benchmark's sizes; the
// fast test shrinks them.
type params struct {
	seed    int64
	seconds float64
	trace   bool

	workers int // simulation workers (matrix Parallelism, sched Workers)
	clients int // closed-loop serve clients

	apps         []workload.Profile // roster (nil = all 44)
	matrixInsts  int                // matrix-exact insts per cell
	matrixDigest string             // expected matrix digest
	warmInsts    int                // insts of the cells set-up caches
	coldInsts    int                // base insts of serve-mixed new specs
	coldEvery    int                // about one request in coldEvery is new
	coldSample   int                // cold results re-run in-process, at most
	setupReps    int                // set-up repetitions behind setup_s, at least
	window       time.Duration      // serve throughput/percentile window

	probeInsts int // insts per app fed to the isolated layer probes
	probeReqs  int // requests re-issued per serve layer probe
}

// goldenMatrixDigest50k is the digest of the full 44×7 matrix at 50k
// instructions per application, the repository's determinism gate.
const goldenMatrixDigest50k = "a0aa44d4ebd74e3cde45c183a8df6e3bdf13204d30c17f779a8c452678846a9a"

func defaultParams(seed int64, seconds float64, trace bool) params {
	n := runtime.GOMAXPROCS(0)
	if n > runtime.NumCPU() {
		n = runtime.NumCPU()
	}
	return params{
		seed: seed, seconds: seconds, trace: trace,
		workers: n, clients: n,
		matrixInsts: 50_000, matrixDigest: goldenMatrixDigest50k,
		warmInsts: 5_000, coldInsts: 20_000, coldEvery: 5, coldSample: 8,
		setupReps: 9, window: time.Second,
		probeInsts: 6_000, probeReqs: 400,
	}
}

func (p params) roster() []workload.Profile {
	if p.apps != nil {
		return p.apps
	}
	return workload.Apps()
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int64
	checks            []check
	metrics           map[string]float64
	samples           map[string]int
	diag              map[string]float64
	spans             []spanSummary
}

func newOutcome() *outcome {
	return &outcome{
		metrics: map[string]float64{},
		samples: map[string]int{},
		diag:    map[string]float64{},
	}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok || format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) ok() bool {
	if len(o.checks) == 0 {
		return false
	}
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if xs[lo] == xs[hi] {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

// op is one completed operation of a timed phase.
type op struct {
	end     time.Duration // completion, relative to the phase start
	latency time.Duration
	failed  bool
}

// windowStats splits a phase's operations into consecutive windows and
// reports the median over windows of throughput and of the latency
// percentiles, so one stalled second moves a metric by one window's share.
// Failed operations count as missing every latency limit.
type windowStats struct {
	throughput, p50, p95, p99 float64
	windows, samples          int
	failed                    int
}

func summarize(ops []op, phase, window time.Duration) windowStats {
	nw := int(phase / window)
	if nw < 1 {
		nw = 1
	}
	width := phase / time.Duration(nw)
	per := make([][]float64, nw)
	st := windowStats{windows: nw, samples: len(ops)}
	for _, o := range ops {
		i := int(o.end / width)
		if i >= nw {
			i = nw - 1
		}
		lat := float64(o.latency) / 1e6
		if o.failed {
			st.failed++
			lat = math.Inf(1)
		}
		per[i] = append(per[i], lat)
	}
	var tp, p50, p95, p99 []float64
	for _, w := range per {
		tp = append(tp, float64(len(w))/width.Seconds())
		if len(w) == 0 {
			continue
		}
		p50 = append(p50, percentile(w, 0.50))
		p95 = append(p95, percentile(w, 0.95))
		p99 = append(p99, percentile(w, 0.99))
	}
	st.throughput = median(tp)
	st.p50, st.p95, st.p99 = median(p50), median(p95), median(p99)
	return st
}

// heapSampler records the Go heap (live and not yet swept objects) every
// few milliseconds until stopped, so the peak over any interval of the run
// can be read back.
type heapSampler struct {
	start   time.Time
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []heapSample
}

type heapSample struct {
	at    time.Duration
	bytes uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.samples = append(h.samples, heapSample{time.Since(h.start), s[0].Value.Uint64()})
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and waits for the sampler goroutine to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

// peakMB returns the highest heap sample within [from, to), in MiB.
func (h *heapSampler) peakMB(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	lo, hi := from.Sub(h.start), to.Sub(h.start)
	var peak uint64
	for _, s := range h.samples {
		if s.at >= lo && s.at < hi && s.bytes > peak {
			peak = s.bytes
		}
	}
	return float64(peak) / (1 << 20)
}

// windowPeaksMB returns the median over equal windows of [from, to) of the
// per-window heap peak.
func (h *heapSampler) windowPeaksMB(from, to time.Time, windows int) float64 {
	if windows < 1 {
		windows = 1
	}
	width := to.Sub(from) / time.Duration(windows)
	var peaks []float64
	for i := 0; i < windows; i++ {
		a := from.Add(time.Duration(i) * width)
		peaks = append(peaks, h.peakMB(a, a.Add(width)))
	}
	return median(peaks)
}

// runtimeCounters snapshots the Go runtime counters behind the go.* metrics.
type runtimeCounters struct {
	gcCPU, totalCPU float64
	allocs, bytes   uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		allocs:   s[2].Value.Uint64(),
		bytes:    s[3].Value.Uint64(),
	}
}

// putRuntime stores the go.* metrics for ops operations between a and b.
func (o *outcome) putRuntime(a, b runtimeCounters, ops int) {
	if ops < 1 {
		ops = 1
	}
	gc := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gc = (b.gcCPU - a.gcCPU) / cpu
	}
	o.metrics["go.gc_cpu_frac"] = gc
	o.metrics["go.allocs_per_op"] = float64(b.allocs-a.allocs) / float64(ops)
	o.metrics["go.alloc_bytes_per_op"] = float64(b.bytes-a.bytes) / float64(ops)
}

// setupTimer times repetitions of a workload's set-up; setup_s is their
// median. Each repetition does the full set-up work from a collected heap,
// so garbage left by earlier work is not charged to it. Workloads spread
// the repetitions over the run (before, between and after the timed work),
// so setup_s samples the host over the same stretch of time as the timed
// metrics instead of over its first second.
type setupTimer struct{ reps []float64 }

func (s *setupTimer) run(one func()) {
	runtime.GC()
	t := time.Now()
	one()
	s.reps = append(s.reps, time.Since(t).Seconds())
}

// report stores setup_s and the repetitions behind it.
func (s *setupTimer) report(o *outcome) {
	if len(s.reps) == 0 {
		return
	}
	o.metrics["setup_s"] = median(s.reps)
	o.samples["setup_reps"] = len(s.reps)
	o.diag["setup_first_s"] = s.reps[0]
}
