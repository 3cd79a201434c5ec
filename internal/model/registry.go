package model

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/staterobust"
)

// The mode registry: every verification question the tools answer, in
// one table. rockerd validates and enumerates request modes from here
// (so a new model cannot drift out of the error message or the dispatch
// switch), the verdict-cache key embeds these strings verbatim
// (internal/verkey — which is why "tso" and "state-tso" can never alias
// in the LRU, the vstore, or a cluster peer), and rocker -models /
// sweep -models iterate the matrix through Run.

// Mode strings. The graph modes run the §5 SCM-instrumented decision
// procedure (execution-graph robustness); the state modes decide
// Definition 2.6 state robustness by product exploration.
const (
	ModeRA       = "ra"        // execution-graph robustness against RA (the paper's main question)
	ModeSRA      = "sra"       // …against the POPL'16 SRA strengthening
	ModeSC       = "sc"        // plain SC exploration: assertion checking only
	ModeTSO      = "tso"       // state robustness against TSO, attack-based instrumentation (CheckTSO)
	ModeStateRA  = "state-ra"  // state robustness via the §3 timestamp machine
	ModeStateSRA = "state-sra" // …with SRA write slots
	ModeStateTSO = "state-tso" // state robustness via the exhaustive TSO store-buffer product
)

// Info describes one registered mode.
type Info struct {
	Mode string
	// Graph marks the execution-graph modes (core.Verify/VerifySC over
	// the instrumented SC memory); the rest explore a weak-memory
	// product.
	Graph bool
	// Checker names the engine backing the verdict; Monitor names the
	// robustness monitor layered on it.
	Checker, Monitor string
	Desc             string
}

// infos is the registry, in canonical order.
var infos = []Info{
	{ModeRA, true, "core.Verify", "scm (§5 instrumentation)",
		"execution-graph robustness against release/acquire"},
	{ModeSRA, true, "core.Verify", "scm (§5 instrumentation)",
		"execution-graph robustness against strong release/acquire"},
	{ModeSC, true, "core.VerifySC", "assertions only",
		"plain SC exploration, assertion checking"},
	{ModeTSO, false, "model.CheckTSO (single-delayer attacks)", "SC-set projection (Def 2.6)",
		"state robustness against x86-TSO, polynomial instrumentation"},
	{ModeStateRA, false, "staterobust.CheckRA", "SC-set projection (Def 2.6)",
		"state robustness against the RA timestamp machine"},
	{ModeStateSRA, false, "staterobust.CheckSRA", "SC-set projection (Def 2.6)",
		"state robustness against the SRA timestamp machine"},
	{ModeStateTSO, false, "staterobust.CheckTSO (exhaustive product)", "SC-set projection (Def 2.6)",
		"state robustness against x86-TSO, exhaustive store-buffer product"},
}

// Infos returns the registry in canonical order (a copy).
func Infos() []Info { return append([]Info(nil), infos...) }

// Modes returns the registered mode strings in canonical order.
func Modes() []string {
	out := make([]string, len(infos))
	for i, in := range infos {
		out[i] = in.Mode
	}
	return out
}

// Valid reports whether mode names a registered verification mode.
func Valid(mode string) bool {
	_, ok := Lookup(mode)
	return ok
}

// Lookup returns the registry entry for mode.
func Lookup(mode string) (Info, bool) {
	for _, in := range infos {
		if in.Mode == mode {
			return in, true
		}
	}
	return Info{}, false
}

// ModeList returns the registered modes as a comma-separated string, for
// error messages and usage lines.
func ModeList() string { return strings.Join(Modes(), ", ") }

// Check dispatches the state modes (tso, state-ra, state-sra,
// state-tso) to their checkers under one staterobust.Limits.
func Check(mode string, program *lang.Program, lim staterobust.Limits) (*staterobust.Result, error) {
	switch mode {
	case ModeTSO:
		return CheckTSO(program, lim)
	case ModeStateRA:
		return staterobust.CheckRA(program, lim)
	case ModeStateSRA:
		return staterobust.CheckSRA(program, lim)
	case ModeStateTSO:
		return staterobust.CheckTSO(program, lim)
	}
	return nil, fmt.Errorf("model: %q is not a state mode (want one of tso, state-ra, state-sra, state-tso)", mode)
}

// RunOpts are the knobs shared by every mode for a matrix run.
type RunOpts struct {
	MaxStates   int
	Workers     int
	TSOBufCap   int
	StaticPrune bool // graph modes only
	Reduce      bool
	Ctx         context.Context
}

// RunResult is one cell of the cross-model verdict matrix.
type RunResult struct {
	Mode   string
	Robust bool
	// States counts explored states: ⟨program, SCM⟩ states for the graph
	// modes, compound weak-machine states for the state modes, plain SC
	// states for mode sc.
	States int
	// SCStates/WeakStates are the program-state projection counts of the
	// state modes (0 otherwise).
	SCStates, WeakStates int
	// BufBoundHit reports that the TSO store-buffer capacity inhibited a
	// write somewhere in the exploration (tso and state-tso; OR'd across
	// workers): the verdict is then only as good as that capacity.
	BufBoundHit bool
	AssertFail  string
	TraceLen    int
	Elapsed     time.Duration
}

// Run answers one mode's question about one program — the uniform entry
// point behind rocker -models and sweep -models.
func Run(mode string, program *lang.Program, o RunOpts) (*RunResult, error) {
	start := time.Now()
	info, ok := Lookup(mode)
	if !ok {
		return nil, fmt.Errorf("unknown mode %q (supported: %s)", mode, ModeList())
	}
	if info.Graph {
		opts := core.Options{
			Model:        core.ModelRA,
			AbstractVals: true,
			MaxStates:    o.MaxStates,
			Workers:      o.Workers,
			StaticPrune:  o.StaticPrune,
			Reduce:       o.Reduce,
			Ctx:          o.Ctx,
		}
		if mode == ModeSRA {
			opts.Model = core.ModelSRA
		}
		if mode == ModeSC {
			sv, err := core.VerifySC(program, opts)
			if err != nil {
				return nil, err
			}
			rr := &RunResult{Mode: mode, Robust: sv.AssertFail == nil, States: sv.States, Elapsed: time.Since(start)}
			if sv.AssertFail != nil {
				rr.AssertFail = sv.AssertFail.Error()
			}
			return rr, nil
		}
		v, err := core.Verify(program, opts)
		if err != nil {
			return nil, err
		}
		rr := &RunResult{Mode: mode, Robust: v.Robust, States: v.States, TraceLen: len(v.Trace), Elapsed: time.Since(start)}
		if v.AssertFail != nil {
			rr.AssertFail = v.AssertFail.Error()
		}
		return rr, nil
	}
	r, err := Check(mode, program, staterobust.Limits{
		MaxStates: o.MaxStates,
		TSOBufCap: o.TSOBufCap,
		Workers:   o.Workers,
		Reduce:    o.Reduce,
		Ctx:       o.Ctx,
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Mode:        mode,
		Robust:      r.Robust,
		States:      r.Explored,
		SCStates:    r.SCStates,
		WeakStates:  r.WeakStates,
		BufBoundHit: r.BufBoundHit,
		TraceLen:    len(r.WitnessTrace),
		Elapsed:     time.Since(start),
	}, nil
}

// Cell renders a matrix cell: ✓ or ✗, the explored-state count, and
// "bufcap" when the TSO buffer capacity inhibited a write — the verdict
// then holds only up to that capacity, which the tables must not hide.
func Cell(rr *RunResult) string {
	mark := "✗"
	if rr.Robust {
		mark = "✓"
	}
	cell := fmt.Sprintf("%s %d", mark, rr.States)
	if rr.BufBoundHit {
		cell += " bufcap"
	}
	return cell
}
