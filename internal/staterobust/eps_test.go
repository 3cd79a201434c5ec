package staterobust_test

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/memsc"
	"repro/internal/prog"
	"repro/internal/staterobust"
)

// eagerClosedSC explores the program under SC with the verifier's
// ε-compression (each thread runs its deterministic local instructions
// eagerly to the next memory operation), collecting raw program-state
// keys. All its states are "closed".
func eagerClosedSC(t *testing.T, program *lang.Program) map[string]struct{} {
	t.Helper()
	p := prog.New(program)
	type node struct {
		ps prog.State
		m  memsc.Memory
	}
	ps0, fail := p.InitState()
	if fail != nil {
		t.Fatalf("assert failed during init closure")
	}
	seen := map[string]struct{}{}
	reach := map[string]struct{}{}
	var stack []node
	push := func(ps prog.State, m memsc.Memory) {
		k := p.StateKeyRaw(ps) + "\x00" + string(m.Encode(nil))
		if _, ok := seen[k]; ok {
			return
		}
		seen[k] = struct{}{}
		reach[p.StateKeyRaw(ps)] = struct{}{}
		stack = append(stack, node{ps, m})
	}
	push(ps0, memsc.New(program.NumLocs()))
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ops := p.Ops(n.ps)
		for ti := range ops {
			if ops[ti].Kind == prog.OpNone {
				continue
			}
			label, enabled := prog.SCLabel(ops[ti], n.m[ops[ti].Loc], program.ValCount)
			if !enabled {
				continue
			}
			nextTS, afail := p.Threads[ti].Apply(n.ps.Threads[ti], label)
			if afail != nil {
				continue
			}
			nextPS := n.ps.Clone()
			nextPS.Threads[ti] = nextTS
			nextM := n.m.Clone()
			nextM.Step(label)
			push(nextPS, nextM)
		}
	}
	return reach
}

// granularClosedSC runs the ε-granular SC explorer and projects its state
// set onto the closed states (every thread at a memory instruction or
// terminated).
func granularClosedSC(t *testing.T, program *lang.Program) map[string]struct{} {
	t.Helper()
	all, err := staterobust.ReachableSC(program, staterobust.Limits{MaxStates: 10_000_000})
	if err != nil {
		t.Fatalf("ReachableSC: %v", err)
	}
	p := prog.New(program)
	closed := map[string]struct{}{}
	st := p.InitStateRaw()
	all.Range(func(key []byte) {
		p.DecodeState(key, st)
		for ti := range p.Threads {
			th := &p.Threads[ti]
			if !th.Terminated(st.Threads[ti]) && th.AtEps(st.Threads[ti]) {
				return
			}
		}
		closed[string(key)] = struct{}{}
	})
	return closed
}

// TestEpsCompressionSound validates the verifier's ε-step compression
// (DESIGN.md): the ε-compressed SC exploration reaches exactly the closed
// states of the fully interleaved ε-granular exploration. (Partial states
// are deterministic local continuations of closed ones, so agreement on
// closed states implies agreement on everything the robustness checks
// observe.)
func TestEpsCompressionSound(t *testing.T) {
	for _, name := range []string{"SB", "MP", "IRIW", "2RMW", "barrier", "peterson-sc", "dekker-sc", "BAR-loop", "spinlock"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := litmus.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			program := e.Program()
			eager := eagerClosedSC(t, program)
			granular := granularClosedSC(t, program)
			for k := range eager {
				if _, ok := granular[k]; !ok {
					t.Fatalf("eager explorer reached a state the granular one did not")
				}
			}
			for k := range granular {
				if _, ok := eager[k]; !ok {
					t.Fatalf("granular closed state missed by the eager explorer")
				}
			}
		})
	}
}
