package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// errNoSteadyPass rejects a baseline without a one-worker exact steady
// pass, such as a report from before the gate measured the exact engine.
var errNoSteadyPass = errors.New("no 1-worker exact steady matrix pass recorded; re-record with -simbench")

// runBaselineCheck is the CI perf-regression gate: it times a one-worker
// exact-engine pass over the full matrix and compares its sim-MIPS against
// the steady pass of the committed BENCH_simkernel.json. A regression
// beyond tolerance (e.g. 0.10 = 10%) fails with a non-zero exit so kernel
// slowdowns are caught in review rather than discovered after merging; on
// success the measured-vs-baseline delta is still printed so drift stays
// visible in CI logs long before it trips the gate.
//
//	go run ./cmd/parrotbench -checkbaseline BENCH_simkernel.json -n 50000
//	go run ./cmd/parrotbench -checkbaseline BENCH_simkernel.json -tolerance 0.05
func runBaselineCheck(path string, n int, tolerance float64, out io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	base, ref, err := parseBaseline(raw)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if n <= 0 {
		n = base.InstsPerApp
	}
	if n != base.InstsPerApp {
		fmt.Fprintf(out, "note: measuring at %d insts/app, baseline recorded at %d\n",
			n, base.InstsPerApp)
	}
	return compareBaseline(ref, measureSteadyMIPS(n), tolerance, out)
}

// parseBaseline decodes a BENCH_simkernel.json and returns its steady pass,
// which must be a one-worker pass (the only kind -simbench records as
// steady).
func parseBaseline(raw []byte) (simBenchReport, matrixPass, error) {
	var base simBenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, matrixPass{}, err
	}
	for _, p := range base.MatrixPasses {
		if p.Pass == "steady" && p.Workers == 1 && p.SimMIPS > 0 {
			return base, p, nil
		}
	}
	return base, matrixPass{}, errNoSteadyPass
}

// measureSteadyMIPS times the matrix the way the baseline's steady pass was
// recorded: one worker on the exact engine, after a cold pass that pays the
// compulsory costs (machine construction, program synthesis). CI machines
// are noisy, so it returns the best of three timed passes: the fastest pass
// is the one least perturbed by unrelated load, and a genuine kernel
// regression slows every pass.
func measureSteadyMIPS(n int) float64 {
	timedMatrixPass("cold", n, 1)
	var best float64
	for i := 0; i < 3; i++ {
		if p := timedMatrixPass("steady", n, 1); p.SimMIPS > best {
			best = p.SimMIPS
		}
	}
	return best
}

// compareBaseline is the gate's verdict: measured sim-MIPS below
// ref × (1 - tolerance) is a regression.
func compareBaseline(ref matrixPass, mips, tolerance float64, out io.Writer) error {
	floor := ref.SimMIPS * (1 - tolerance)
	ratio := mips / ref.SimMIPS
	fmt.Fprintf(out, "1-worker exact matrix pass: %.3f sim-MIPS (baseline %.3f, ratio %.3f, floor %.3f)\n",
		mips, ref.SimMIPS, ratio, 1-tolerance)
	if mips < floor {
		return fmt.Errorf("sim-MIPS regression: %.3f is %.1f%% below baseline %.3f (max allowed %.0f%%)",
			mips, (1-ratio)*100, ref.SimMIPS, tolerance*100)
	}
	fmt.Fprintf(out, "perf gate: OK (%+.1f%% vs baseline, tolerance %.0f%%)\n",
		(ratio-1)*100, tolerance*100)
	return nil
}
