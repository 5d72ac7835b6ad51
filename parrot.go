// Package parrot is a reproduction of "Power Awareness through Selective
// Dynamically Optimized Traces" (Rosner, Almog, Moffie, Schwartz &
// Mendelson, ISCA 2004): the PARROT microarchitectural framework — trace
// caching, gradual hot/blazing filtering, dynamic trace optimization and
// cold/hot pipeline decoupling — implemented as an executable performance
// and energy model with a synthetic 44-application benchmark substrate.
//
// The package is a facade over the internal implementation:
//
//   - Models() and GetModel() expose the paper's seven machine
//     configurations (N, TN, TON, W, TW, TOW, TOS — Tables 3.1/3.2);
//   - Apps() and AppByName() expose the benchmark roster (§3.4);
//   - Run() simulates one (model, application) pair and returns timing,
//     energy and trace statistics;
//   - Experiments() runs the full evaluation matrix and reproduces every
//     figure of §4;
//   - SampleTraces() and NewOptimizer() expose the trace selector and
//     dynamic optimizer directly, for tooling and inspection.
package parrot

import (
	"fmt"
	"io"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/opt"
	"parrot/internal/trace"
	"parrot/internal/tracefile"
	"parrot/internal/workload"
)

// Core aliases of the public surface.
type (
	// Model is a complete machine configuration (paper Table 3.2).
	Model = config.Model
	// ModelID names one of the seven configurations.
	ModelID = config.ModelID
	// Profile is a synthetic application profile (paper §3.4).
	Profile = workload.Profile
	// Suite is a benchmark group.
	Suite = workload.Suite
	// Result is the outcome of one simulation run.
	Result = core.Result
	// Trace is a decoded, optionally optimized execution trace.
	Trace = trace.Trace
	// Segment is a trace-selection unit of committed instructions.
	Segment = trace.Segment
	// Optimizer is the dynamic trace optimizer.
	Optimizer = opt.Optimizer
	// OptimizeResult summarizes one trace optimization.
	OptimizeResult = opt.Result
	// OptimizeConfig selects optimization pass classes.
	OptimizeConfig = opt.Config
	// ExperimentConfig parameterizes a full evaluation run.
	ExperimentConfig = experiments.Config
	// ExperimentResults is the full model × application result matrix.
	ExperimentResults = experiments.Results
	// Figure is one reproduced table/figure of §4.
	Figure = experiments.Figure
)

// The seven model identifiers of the study.
const (
	N   = config.N
	W   = config.W
	TN  = config.TN
	TW  = config.TW
	TON = config.TON
	TOW = config.TOW
	TOS = config.TOS
)

// Models returns every machine configuration in presentation order.
func Models() []Model { return config.All() }

// StandardModels returns the six models of the main results (TOS is a
// conceptual reference in the paper).
func StandardModels() []Model { return config.Standard() }

// GetModel returns the named configuration.
func GetModel(id ModelID) (Model, error) {
	if m, ok := config.Lookup(id); ok {
		return m, nil
	}
	return Model{}, fmt.Errorf("parrot: unknown model %q", id)
}

// Apps returns the 44-application benchmark roster.
func Apps() []Profile { return workload.Apps() }

// AppByName looks up a benchmark application.
func AppByName(name string) (Profile, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return Profile{}, fmt.Errorf("parrot: unknown application %q", name)
	}
	return p, nil
}

// KillerApps returns the three applications the paper highlights for the
// largest improvements: flash, wupwise and perlbmk.
func KillerApps() []string { return workload.KillerApps() }

// Run simulates insts dynamic instructions of the application on the model,
// using the standard warmup protocol (30% of the stream primes caches,
// predictors and the trace subsystem before measurement). insts <= 0 uses
// the profile default.
func Run(model Model, app Profile, insts int) *Result {
	return core.RunWarm(model, app, insts)
}

// RunByName is Run with model and application looked up by name.
func RunByName(modelID, appName string, insts int) (*Result, error) {
	m, err := GetModel(ModelID(modelID))
	if err != nil {
		return nil, err
	}
	p, err := AppByName(appName)
	if err != nil {
		return nil, err
	}
	return Run(m, p, insts), nil
}

// Experiments runs the full model × application matrix and returns the
// figure generators for the paper's evaluation section.
func Experiments(cfg ExperimentConfig) *ExperimentResults {
	return experiments.Run(cfg)
}

// NewOptimizer builds a dynamic trace optimizer with the given pass
// configuration (use AllOptimizations for the paper's full optimizer).
func NewOptimizer(cfg OptimizeConfig) *Optimizer { return opt.New(cfg) }

// AllOptimizations enables every optimizer pass.
func AllOptimizations() OptimizeConfig { return opt.AllOptimizations() }

// GeneralOnly enables only the core-independent passes (the ablation split
// of §2.4).
func GeneralOnly() OptimizeConfig { return opt.GeneralOnly() }

// CaptureTrace writes n dynamic instructions of an application into a
// binary trace file, which RunTraceFile (or `parrotsim -tracefile`) can
// replay on any model. Trace capture is how the paper's own environment
// works: applications are captured once and simulated many times.
func CaptureTrace(w io.Writer, app Profile, n int) error {
	return tracefile.Capture(w, app, n)
}

// RunTraceFile replays a captured trace file on the model using the
// standard warmup protocol.
func RunTraceFile(model Model, r io.Reader) (*Result, error) {
	tr, err := tracefile.NewReader(r)
	if err != nil {
		return nil, err
	}
	prof := Profile{Name: tr.Name, Suite: tr.Suite}
	m := core.New(model)
	res := m.RunSourceWarm(tr, prof, int(float64(tr.Remaining())*core.WarmupFraction))
	if err := tr.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// SampleTraces runs the trace selector over the beginning of an
// application's dynamic stream and returns up to max constructed traces —
// a convenient way to inspect what the PARROT machinery actually builds.
func SampleTraces(app Profile, insts, max int) []*Trace {
	prog := workload.Generate(app)
	stream := workload.NewStream(prog, insts)
	sel := trace.NewSelector()
	var out []*Trace
	for {
		d, ok := stream.Next()
		if !ok {
			break
		}
		for _, seg := range sel.Feed(&d) {
			if len(out) >= max {
				return out
			}
			out = append(out, trace.Build(&seg))
		}
	}
	for _, seg := range sel.Flush() {
		if len(out) >= max {
			break
		}
		out = append(out, trace.Build(&seg))
	}
	return out
}
