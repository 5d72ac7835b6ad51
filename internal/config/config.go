// Package config defines the seven machine models of the study (Tables 3.1
// and 3.2): the two-dimensional configuration space of core width (narrow /
// wide / split) by front-end capability (baseline / selective trace cache /
// trace cache with dynamic optimization).
//
//	          baseline   +trace cache   +trace cache & optimizer
//	narrow    N          TN             TON
//	wide      W          TW             TOW
//	split     -          -              TOS (narrow cold + wide hot)
package config

import (
	"fmt"

	"parrot/internal/energy"
	"parrot/internal/mem"
	"parrot/internal/ooo"
	"parrot/internal/opt"
)

// ModelID names one of the seven configurations.
type ModelID string

// The configuration space of §3.3.
const (
	N   ModelID = "N"   // 4-wide reference OOO machine
	W   ModelID = "W"   // theoretical 8-wide machine, all stages wide
	TN  ModelID = "TN"  // N + selective trace cache
	TW  ModelID = "TW"  // W + selective trace cache
	TON ModelID = "TON" // N + trace cache + dynamic optimizer
	TOW ModelID = "TOW" // W + trace cache + dynamic optimizer
	TOS ModelID = "TOS" // split: narrow cold core + wide hot core + optimizer
)

// Model is a complete machine configuration.
type Model struct {
	ID          ModelID
	Description string

	// Cold front-end.
	FetchWidth  int  // instructions fetched per cycle
	DecodeWidth int  // instructions decoded per cycle (slot 0 complex-capable)
	FrontDepth  int  // fetch-to-dispatch depth: branch misprediction refill
	BPEntries   int  // gshare table entries
	BPHistBits  uint // gshare history length
	BTBEntries  int
	RASDepth    int

	// Trace subsystem (PARROT models).
	TraceCache     bool
	TCFrames       int
	TCWays         int
	TraceFetchUops int // uops supplied per cycle from the trace cache
	TPredEntries   int
	HotEntries     int
	HotWays        int
	HotThreshold   uint32
	BlazeEntries   int
	BlazeWays      int
	BlazeThreshold uint32
	Optimize       bool
	OptConfig      opt.Config

	// Execution cores. Split models use Core for cold and HotCore for hot;
	// unified models share Core.
	Split   bool
	Core    ooo.Config
	HotCore ooo.Config

	// SwitchPenalty is the split-core state-switch stall in cycles.
	SwitchPenalty int

	// CoreAreaK is the core area relative to the standard OOO core, the K
	// of the paper's leakage formula (trace structures and the optimizer
	// contribute area; the wide core roughly doubles it).
	CoreAreaK float64

	Mem mem.HierarchyConfig
}

// baseline returns the pieces shared by every model.
func baseline() Model {
	return Model{
		FrontDepth: 10,
		BTBEntries: 2048,
		RASDepth:   16,
		Mem:        mem.DefaultHierarchy(),
	}
}

// traceDefaults fills the PARROT trace-subsystem settings shared by all
// trace-cache models: 512-frame 4-way trace cache of 64-uop frames,
// 2K-entry trace predictor alongside a 2K-entry branch predictor (§4.2),
// hot-filter threshold 8 and the "relatively high" blazing threshold 32.
func traceDefaults(m *Model) {
	m.TraceCache = true
	m.TCFrames = 512
	m.TCWays = 4
	m.TPredEntries = 2048
	m.BPEntries = 2048
	m.BPHistBits = 8
	m.HotEntries = 256
	m.HotWays = 4
	m.HotThreshold = 8
	m.BlazeEntries = 128
	m.BlazeWays = 4
	m.BlazeThreshold = 32
}

// presentation is every model ID in presentation order.
var presentation = []ModelID{N, TN, TON, W, TW, TOW, TOS}

// Lookup returns the named model configuration, or ok=false for an unknown
// ID. Only the named model is built.
func Lookup(id ModelID) (Model, bool) {
	for _, known := range presentation {
		if known == id {
			return Get(id), true
		}
	}
	return Model{}, false
}

// Get returns the named model configuration. It panics on an unknown ID;
// Lookup is the checked form.
func Get(id ModelID) Model {
	m := baseline()
	m.ID = id
	switch id {
	case N:
		m.Description = "standard 4-wide super-scalar out-of-order reference"
		m.FetchWidth, m.DecodeWidth = 4, 4
		m.BPEntries, m.BPHistBits = 4096, 8
		m.Core = ooo.Narrow()
		m.TraceFetchUops = 0
		m.CoreAreaK = 1.0

	case W:
		m.Description = "theoretical 8-wide machine: all stages wide"
		m.FetchWidth, m.DecodeWidth = 8, 8
		m.FrontDepth = 12
		m.BPEntries, m.BPHistBits = 4096, 8
		m.Core = ooo.Wide()
		m.CoreAreaK = 1.95

	case TN:
		m.Description = "narrow machine with selective trace cache"
		m.FetchWidth, m.DecodeWidth = 4, 4
		m.Core = ooo.Narrow()
		traceDefaults(&m)
		m.TraceFetchUops = 8
		m.CoreAreaK = 1.13

	case TW:
		m.Description = "wide machine with selective trace cache"
		m.FetchWidth, m.DecodeWidth = 8, 8
		m.FrontDepth = 12
		m.Core = ooo.Wide()
		traceDefaults(&m)
		m.TraceFetchUops = 16
		m.CoreAreaK = 2.08

	case TON:
		m.Description = "narrow PARROT: trace cache + gradual dynamic optimization"
		m.FetchWidth, m.DecodeWidth = 4, 4
		m.Core = ooo.Narrow()
		traceDefaults(&m)
		m.TraceFetchUops = 8
		m.Optimize = true
		m.OptConfig = opt.AllOptimizations()
		m.CoreAreaK = 1.18

	case TOW:
		m.Description = "wide PARROT: trace cache + gradual dynamic optimization"
		m.FetchWidth, m.DecodeWidth = 8, 8
		m.FrontDepth = 12
		m.Core = ooo.Wide()
		traceDefaults(&m)
		m.TraceFetchUops = 16
		m.Optimize = true
		m.OptConfig = opt.AllOptimizations()
		m.CoreAreaK = 2.13

	case TOS:
		m.Description = "split PARROT: narrow cold core, wide hot core (conceptual reference)"
		m.FetchWidth, m.DecodeWidth = 4, 4
		m.Core = ooo.Narrow()
		m.HotCore = ooo.Wide()
		m.Split = true
		m.SwitchPenalty = 4
		traceDefaults(&m)
		m.TraceFetchUops = 16
		m.Optimize = true
		m.OptConfig = opt.AllOptimizations()
		m.CoreAreaK = 2.75

	default:
		panic(fmt.Sprintf("config: unknown model %q", id))
	}
	return m
}

// All returns every model in presentation order.
func All() []Model {
	out := make([]Model, len(presentation))
	for i, id := range presentation {
		out[i] = Get(id)
	}
	return out
}

// Standard returns the six models of the main results (TOS is presented
// only as a reference for future development, §4).
func Standard() []Model {
	ids := []ModelID{N, TN, TON, W, TW, TOW}
	out := make([]Model, len(ids))
	for i, id := range ids {
		out[i] = Get(id)
	}
	return out
}

// EnergyParams derives the energy-model scaling parameters of a model.
func (m *Model) EnergyParams() energy.Params {
	return energy.Params{
		Width:       m.Core.Width,
		DecodeWidth: m.DecodeWidth,
		IQSize:      m.Core.IQSize,
		ROBSize:     m.Core.ROBSize,
		BPEntries:   m.BPEntries,
	}
}

// HotEnergyParams derives the scaling parameters of the hot core (split
// models; equals EnergyParams for unified ones except decode, which the hot
// pipeline does not use).
func (m *Model) HotEnergyParams() energy.Params {
	core := m.Core
	if m.Split {
		core = m.HotCore
	}
	return energy.Params{
		Width:       core.Width,
		DecodeWidth: m.DecodeWidth,
		IQSize:      core.IQSize,
		ROBSize:     core.ROBSize,
		BPEntries:   m.BPEntries,
	}
}

// WidthClass returns "narrow", "wide" or "split" (Table 3.1 rows).
func (m *Model) WidthClass() string {
	switch {
	case m.Split:
		return "split"
	case m.Core.Width >= 8:
		return "wide"
	default:
		return "narrow"
	}
}

// SameWidthBaseline returns the baseline model of the same width, against
// which Figures 4.1–4.3 report improvements.
func (m *Model) SameWidthBaseline() ModelID {
	if m.WidthClass() == "wide" {
		return W
	}
	return N
}
