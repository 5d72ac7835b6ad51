package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
)

// TestCompareBaselineFloor pins the gate's boundary: a measurement exactly
// at ref × (1 - tolerance) passes, the next representable value below it
// fails.
func TestCompareBaselineFloor(t *testing.T) {
	ref := matrixPass{Pass: "steady", Workers: 1, SimMIPS: 3.1}
	const tol = 0.10
	floor := ref.SimMIPS * (1 - tol)
	if err := compareBaseline(ref, floor, tol, io.Discard); err != nil {
		t.Fatalf("measurement at the floor failed the gate: %v", err)
	}
	if err := compareBaseline(ref, math.Nextafter(floor, 0), tol, io.Discard); err == nil {
		t.Fatal("measurement just below the floor passed the gate")
	}
	if err := compareBaseline(ref, 0.85*ref.SimMIPS, tol, io.Discard); err == nil {
		t.Fatal("a 15% slowdown passed a 10% gate")
	}
	if err := compareBaseline(ref, 2*ref.SimMIPS, tol, io.Discard); err != nil {
		t.Fatalf("a faster measurement failed the gate: %v", err)
	}
}

// TestParseBaselineRejectsNonExactSteady: a report whose steady pass is not
// a one-worker exact pass, like the replay-era report that recorded
// "memo": true and no worker count, gives the gate no reference.
func TestParseBaselineRejectsNonExactSteady(t *testing.T) {
	for name, raw := range map[string]string{
		"replay steady": `{"insts_per_app": 50000, "matrix_passes": [
			{"pass": "cold", "memo": true, "procs": 1, "sim_mips": 3.45},
			{"pass": "steady", "memo": true, "procs": 1, "sim_mips": 1153.6},
			{"pass": "steady_nomemo", "memo": false, "procs": 1, "sim_mips": 3.75}]}`,
		"multi-worker steady": `{"insts_per_app": 50000, "matrix_passes": [
			{"pass": "steady", "workers": 2, "procs": 2, "sim_mips": 3.5}]}`,
		"no steady": `{"insts_per_app": 50000, "matrix_passes": [
			{"pass": "cold", "workers": 1, "procs": 2, "sim_mips": 1.5}]}`,
	} {
		if _, _, err := parseBaseline([]byte(raw)); !errors.Is(err, errNoSteadyPass) {
			t.Errorf("%s: err = %v, want errNoSteadyPass", name, err)
		}
	}
}

// TestParseBaselineRoundTrip: the steady pass -simbench writes is the one
// the gate reads back, and the committed report carries one.
func TestParseBaselineRoundTrip(t *testing.T) {
	rep := simBenchReport{InstsPerApp: 50_000, MatrixPasses: []matrixPass{
		{Pass: "cold", Workers: 1, Samples: 1, SimMIPS: 1.5},
		{Pass: "steady", Workers: 1, Samples: simBenchSamples, SimMIPS: 1.7, SimMIPSMin: 1.6, SimMIPSMax: 1.9},
		{Pass: "parallel", Workers: 2, Samples: simBenchSamples, SimMIPS: 3.2},
	}}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	_, ref, err := parseBaseline(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ref != rep.MatrixPasses[1] {
		t.Fatalf("parsed steady pass %+v, want %+v", ref, rep.MatrixPasses[1])
	}

	committed, err := os.ReadFile("../../BENCH_simkernel.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := parseBaseline(committed); err != nil {
		t.Fatalf("committed BENCH_simkernel.json: %v", err)
	}
}
