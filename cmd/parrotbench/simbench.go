package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"

	"parrot"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
)

// simBenchReport is the schema of BENCH_simkernel.json: the simulation
// kernel's throughput and allocation profile, recorded so kernel
// regressions are visible in review diffs. Regenerate with:
//
//	go run ./cmd/parrotbench -simbench -n 50000 > BENCH_simkernel.json
//	go run ./cmd/parrotbench -simbench -n 50000 -procs 2 > BENCH_simkernel.json
type simBenchReport struct {
	Benchmark   string `json:"benchmark"`
	Date        string `json:"date"`
	GoVersion   string `json:"go"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	InstsPerApp int    `json:"insts_per_app"`
	Apps        int    `json:"apps"`
	Models      int    `json:"models"`

	// MatrixPasses holds full-matrix runs of the exact cycle engine. The
	// "cold" pass pays every compulsory cost (program synthesis, machine
	// construction); "steady" is the median of simBenchSamples one-worker
	// passes on the warm pool, the reference the perf gate compares
	// against; "parallel" (-procs N) is the same at N workers.
	MatrixPasses []matrixPass `json:"matrix_passes"`

	// ParallelEfficiency is set when a "parallel" pass was recorded: its
	// median sim-MIPS divided by N × the one-worker steady median.
	// 1.0 = perfect scaling.
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`

	// SteadyState profiles repeated single simulations on one reused
	// machine: the ~0 allocs/op gate for the slab-backed pipeline.
	SteadyState steadyState `json:"steady_state"`

	Pool poolCounters `json:"pool"`

	// SeedBaseline is the same matrix measurement taken before the
	// zero-allocation kernel work (machine pooling, ring-buffer dispatch,
	// slab-backed traces), kept in the report as the regression reference.
	SeedBaseline seedBaseline `json:"seed_baseline"`

	// PR1Baseline is the steady matrix pass at the PR 1 tree (pooled
	// machines and slab pipeline, but the polling execution kernel) — the
	// reference for the event-driven kernel's >=1.4x throughput gate.
	PR1Baseline seedBaseline `json:"pr1_baseline"`

	// PR4Baseline is the steady matrix pass at the PR 4 tree (event-driven
	// kernel).
	PR4Baseline seedBaseline `json:"pr4_baseline"`

	Notes string `json:"notes,omitempty"`
}

type seedBaseline struct {
	Description string  `json:"description"`
	InstsPerApp int     `json:"insts_per_app"`
	WallSeconds float64 `json:"wall_seconds"`
	SimMIPS     float64 `json:"sim_mips"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
}

// preKernelBaseline is the 44-app × 7-model matrix at 50k insts/app measured
// on the pre-pooling simulator (every run constructed a fresh machine and
// regenerated its program; dispatch carried pointer-typed uops through
// grow-forever slices).
var preKernelBaseline = seedBaseline{
	Description: "pre-refactor seed: fresh machine + regenerated program per run, pointer-uop append queues",
	InstsPerApp: 50_000,
	WallSeconds: 9.25,
	SimMIPS:     1.17,
	Allocs:      15_090_000,
	AllocBytes:  3_340_000_000,
}

// pollingKernelBaseline is the steady matrix pass measured at the PR 1 tree
// (polling execution kernel: linear pending-list writeback, per-cycle IQ
// source re-poll, per-load store-ring walk) on the same machine.
var pollingKernelBaseline = seedBaseline{
	Description: "PR 1 tree steady matrix pass: pooled machines + slab pipeline, polling execution kernel",
	InstsPerApp: 50_000,
	WallSeconds: 4.054,
	SimMIPS:     2.673,
	Allocs:      3_547,
	AllocBytes:  1_554_432,
}

// eventKernelBaseline is the steady matrix pass measured at the PR 4 tree
// (event-driven execution kernel, time-wheel writeback, idle fast-forward)
// on the same machine.
var eventKernelBaseline = seedBaseline{
	Description: "PR 4 tree steady matrix pass: event-driven kernel, no hot-window memoization",
	InstsPerApp: 50_000,
	WallSeconds: 3.421,
	SimMIPS:     3.168,
	Allocs:      4_335,
	AllocBytes:  1_648_208,
}

// matrixPass is one recorded full-matrix measurement. For a multi-sample
// pass, WallSeconds, SimMIPS and the allocation counts belong to the median
// sample; SimMIPSMin and SimMIPSMax give the spread.
type matrixPass struct {
	Pass        string  `json:"pass"`    // cold | steady | parallel
	Workers     int     `json:"workers"` // experiments.Config.Parallelism
	Procs       int     `json:"procs"`   // GOMAXPROCS during the pass
	Samples     int     `json:"samples"`
	WallSeconds float64 `json:"wall_seconds"`
	SimMIPS     float64 `json:"sim_mips"`
	SimMIPSMin  float64 `json:"sim_mips_min"`
	SimMIPSMax  float64 `json:"sim_mips_max"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
}

type steadyState struct {
	Model            string  `json:"model"`
	App              string  `json:"app"`
	Insts            int     `json:"insts"`
	Runs             int     `json:"runs"`
	AllocsPerRun     float64 `json:"allocs_per_run"`
	AllocBytesPerRun float64 `json:"alloc_bytes_per_run"`
	SimMIPS          float64 `json:"sim_mips"`
}

type poolCounters struct {
	Gets     uint64 `json:"gets"`
	Reuses   uint64 `json:"reuses"`
	Puts     uint64 `json:"puts"`
	Discards uint64 `json:"discards"`
}

// memDelta brackets a measurement with runtime.ReadMemStats.
type memDelta struct{ m0 runtime.MemStats }

func startMemDelta() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.m0)
	return d
}

func (d *memDelta) stop() (allocs, bytes uint64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - d.m0.Mallocs, m1.TotalAlloc - d.m0.TotalAlloc
}

// simBenchSamples is the number of timed passes behind each steady and
// parallel median.
const simBenchSamples = 5

// timedMatrixPass runs one full exact-engine experiment matrix with the
// given worker count and records it.
func timedMatrixPass(name string, n, workers int) matrixPass {
	d := startMemDelta()
	start := time.Now()
	res := experiments.Run(experiments.Config{Insts: n, Parallelism: workers})
	wall := time.Since(start).Seconds()
	allocs, bytes := d.stop()
	var insts uint64
	for _, id := range res.Models() {
		for _, p := range res.Apps() {
			insts += res.Get(id, p.Name).Insts
		}
	}
	mips := float64(insts) / wall / 1e6
	return matrixPass{
		Pass:        name,
		Workers:     workers,
		Procs:       runtime.GOMAXPROCS(0),
		Samples:     1,
		WallSeconds: wall,
		SimMIPS:     mips,
		SimMIPSMin:  mips,
		SimMIPSMax:  mips,
		Allocs:      allocs,
		AllocBytes:  bytes,
	}
}

// medianMatrixPass times samples passes and returns the median one, with
// the min and max sim-MIPS of all samples alongside.
func medianMatrixPass(name string, n, workers, samples int) matrixPass {
	runs := make([]matrixPass, samples)
	for i := range runs {
		runs[i] = timedMatrixPass(name, n, workers)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].SimMIPS < runs[j].SimMIPS })
	med := runs[samples/2]
	med.Samples = samples
	med.SimMIPSMin = runs[0].SimMIPS
	med.SimMIPSMax = runs[samples-1].SimMIPS
	return med
}

// runSimBench measures the kernel and writes the JSON report. procs > 1
// adds a matrix pass with procs workers at GOMAXPROCS=procs for the
// parallel-scaling figure.
func runSimBench(n, procs int, out io.Writer) error {
	rep := simBenchReport{
		Benchmark:    "simkernel",
		Date:         time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		InstsPerApp:  n,
		Apps:         len(parrot.Apps()),
		Models:       len(config.All()),
		SeedBaseline: preKernelBaseline,
		PR1Baseline:  pollingKernelBaseline,
		PR4Baseline:  eventKernelBaseline,
		Notes: "Every pass runs the exact cycle engine. matrix_passes[0] (cold) pays compulsory costs " +
			"(program synthesis, machine construction); steady is the median of one-worker passes on the " +
			"warm pool, with min/max over the samples, and is the -checkbaseline reference. parallel uses " +
			"procs workers at GOMAXPROCS=procs; parallel_efficiency = parallel / (procs x steady). " +
			"steady_state is per complete warmup+measure simulation on one reused machine, allocations included.",
	}

	cold := timedMatrixPass("cold", n, 1)
	steady := medianMatrixPass("steady", n, 1, simBenchSamples)
	rep.MatrixPasses = append(rep.MatrixPasses, cold, steady)

	if procs > 1 {
		old := runtime.GOMAXPROCS(procs)
		par := medianMatrixPass("parallel", n, procs, simBenchSamples)
		runtime.GOMAXPROCS(old)
		rep.MatrixPasses = append(rep.MatrixPasses, par)
		rep.ParallelEfficiency = par.SimMIPS / (float64(procs) * steady.SimMIPS)
	}

	// Steady-state single-run loop on one caller-managed machine, reset
	// between runs: the slab pipeline's allocs/op gate.
	const ssRuns, ssInsts = 200, 30_000
	m, _ := parrot.GetModel(parrot.TON)
	app, _ := parrot.AppByName("flash")
	mach := core.New(config.Model(m))
	core.RunWarmOn(mach, app, ssInsts) // prime
	d := startMemDelta()
	start := time.Now()
	for i := 0; i < ssRuns; i++ {
		mach.Reset()
		core.RunWarmOn(mach, app, ssInsts)
	}
	wall := time.Since(start).Seconds()
	allocs, bytes := d.stop()
	rep.SteadyState = steadyState{
		Model:            string(parrot.TON),
		App:              "flash",
		Insts:            ssInsts,
		Runs:             ssRuns,
		AllocsPerRun:     float64(allocs) / ssRuns,
		AllocBytesPerRun: float64(bytes) / ssRuns,
		SimMIPS:          float64(uint64(ssRuns)*ssInsts) / wall / 1e6,
	}

	st := core.DefaultPool.Stats()
	rep.Pool = poolCounters{Gets: st.Gets, Reuses: st.Reuses, Puts: st.Puts, Discards: st.Discards}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}
