package scm_test

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/prog"
	"repro/internal/scm"
)

// monitorStep is one recorded successor: the monitor state it is stepped
// from, as its encoding, and the thread and label of the step.
type monitorStep struct {
	state []byte
	tid   lang.Tid
	lab   lang.Label
}

// recordMonitorSteps explores the corpus row breadth-first under SC with
// the §5 monitor (abstract values, no reduction) and records the steps of
// the first limit successors, in expansion order.
func recordMonitorSteps(tb testing.TB, row string, limit int) (*scm.Monitor, []monitorStep) {
	tb.Helper()
	e, err := litmus.Get(row)
	if err != nil {
		tb.Fatal(err)
	}
	program := e.Program()
	p := prog.New(program)
	na := make([]bool, len(program.Locs))
	for i, li := range program.Locs {
		na[i] = li.NA
	}
	mon := scm.NewMonitor(program.NumThreads(), program.NumLocs(), program.ValCount, prog.CriticalVals(program), na)
	ps, fail := p.InitState()
	if fail != nil {
		tb.Fatalf("%s: initial assertion failure", row)
	}
	cur, nxt := p.InitStateRaw(), p.InitStateRaw()
	ops := make([]prog.MemOp, len(p.Threads))
	var ms, next scm.State
	root := mon.Encode(p.EncodeState(nil, ps), mon.Init())
	seen := map[string]bool{string(root): true}
	var steps []monitorStep
	for queue := [][]byte{root}; len(queue) > 0 && len(steps) < limit; queue = queue[1:] {
		key := queue[0]
		n := p.DecodeState(key, cur)
		mon.View(&ms, key[n:])
		p.OpsInto(ops, cur)
		for t, op := range ops {
			if op.Kind == prog.OpNone {
				continue
			}
			lab, ok := prog.SCLabel(op, ms.M[op.Loc], program.ValCount)
			if !ok || p.Threads[t].ApplyInto(cur.Threads[t], lab, &nxt.Threads[t]) != nil {
				continue
			}
			steps = append(steps, monitorStep{state: key[n:], tid: lang.Tid(t), lab: lab})
			saved := cur.Threads[t]
			cur.Threads[t] = nxt.Threads[t]
			succ := mon.Encode(p.EncodeState(nil, cur), &ms)
			mon.View(&next, succ[len(succ)-mon.EncodedLen():])
			mon.Step(&next, lang.Tid(t), lab)
			cur.Threads[t] = saved
			if !seen[string(succ)] {
				seen[string(succ)] = true
				queue = append(queue, succ)
			}
		}
	}
	return mon, steps
}

// BenchmarkMonitorExpand times the monitor's share of producing one
// successor key, on steps recorded from rcu-offline (the slowest light
// Figure 7 row): view the parent's monitor state in its key, append its
// bytes to the successor's key buffer, view them there and step them in
// place. ns/op is per successor; steady state allocates nothing.
func BenchmarkMonitorExpand(b *testing.B) {
	limit := 200000
	if testing.Short() {
		limit = 20000
	}
	mon, steps := recordMonitorSteps(b, "rcu-offline", limit)
	var cur, next scm.State
	key := make([]byte, 0, 2*mon.EncodedLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &steps[i%len(steps)]
		mon.View(&cur, st.state)
		key = mon.Encode(key[:0], &cur)
		mon.View(&next, key)
		mon.Step(&next, st.tid, st.lab)
	}
}
