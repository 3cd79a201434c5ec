package fence

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/parser"
	"repro/internal/prog"
)

// referenceEnforce is the search without the witness cache: every
// candidate, smallest first, goes to the oracle.
func referenceEnforce(p *lang.Program, opts Options) ([]Placement, error) {
	if opts.MaxRepairs <= 0 {
		opts.MaxRepairs = 4
	}
	vopts := verifyOptions(opts.Verify)
	robust := func(q *lang.Program) (bool, error) {
		v, err := core.Verify(q, vopts)
		if err != nil {
			return false, err
		}
		if v.AssertFail != nil {
			return false, errors.New("assertion fails under SC")
		}
		return v.Robust, nil
	}
	if ok, err := robust(p); err != nil || ok {
		return nil, err
	}
	cands := candidates(p, opts.Strategy)
	var pick []Placement
	var try func(size, from int) (bool, error)
	try = func(size, from int) (bool, error) {
		if size == 0 {
			return robust(Apply(p, pick))
		}
		for ci := from; ci < len(cands); ci++ {
			pick = append(pick, cands[ci])
			if ok, err := try(size-1, ci+1); err != nil || ok {
				return ok, err
			}
			pick = pick[:len(pick)-1]
		}
		return false, nil
	}
	for size := 1; size <= opts.MaxRepairs; size++ {
		if ok, err := try(size, 0); err != nil || ok {
			return pick, err
		}
	}
	return nil, ErrNotEnforceable
}

// heavyRepair names the rows whose reference search takes seconds.
var heavyRepair = []string{"lamport2-sc", "chase-lev-sc"}

// repairRows returns the non-robust, non-Big corpus rows, leaving the
// heavy ones out under -short.
func repairRows(t *testing.T) []litmus.Entry {
	rows := nonRobust(litmus.All())
	if len(rows) == 0 {
		t.Fatal("no non-robust corpus rows")
	}
	return rows
}

// nonRobust returns the non-robust, non-Big entries, leaving the heavy
// ones out under -short.
func nonRobust(entries []litmus.Entry) []litmus.Entry {
	var rows []litmus.Entry
	for _, e := range entries {
		if e.RobustRA || e.Big || (testing.Short() && slices.Contains(heavyRepair, e.Name)) {
			continue
		}
		rows = append(rows, e)
	}
	return rows
}

// TestEnforceParity pins the counterexample-guided search to the
// reference search: the same placements (or the same ErrNotEnforceable)
// on every non-robust corpus row, with both repair strategies, on the
// sequential and the parallel oracle, and with partial-order reduction
// (whose traces are symmetry-concretized) and static pruning on.
func TestEnforceParity(t *testing.T) {
	type config struct {
		name  string
		opts  Options
		heavy bool // run the heavy rows in this configuration
	}
	configs := []config{
		{"fences-w1", Options{Strategy: Fences, Verify: core.Options{AbstractVals: true, Workers: 1}}, true},
		{"fences-w0", Options{Strategy: Fences}, true},
		{"fences-reduce-prune", Options{Strategy: Fences, Verify: core.Options{AbstractVals: true, Reduce: true, StaticPrune: true}}, false},
		{"mixed-w1", Options{Strategy: Mixed, Verify: core.Options{AbstractVals: true, Workers: 1}}, false},
		{"mixed-w0", Options{Strategy: Mixed}, false},
	}
	for _, e := range repairRows(t) {
		p := e.Program()
		for _, c := range configs {
			if !c.heavy && slices.Contains(heavyRepair, e.Name) {
				continue
			}
			t.Run(e.Name+"/"+c.name, func(t *testing.T) {
				want, werr := referenceEnforce(p, c.opts)
				got, _, gerr := Enforce(p, c.opts)
				if !errors.Is(gerr, werr) && !(gerr == nil && werr == nil) {
					t.Fatalf("error %v, reference %v", gerr, werr)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("placements %v, reference %v", got, want)
				}
			})
		}
	}
	t.Run("IRIW/max1", func(t *testing.T) {
		e, _ := litmus.Get("IRIW")
		opts := Options{MaxRepairs: 1}
		if _, err := referenceEnforce(e.Program(), opts); !errors.Is(err, ErrNotEnforceable) {
			t.Fatalf("reference: %v, want ErrNotEnforceable", err)
		}
		if _, _, err := Enforce(e.Program(), opts); !errors.Is(err, ErrNotEnforceable) {
			t.Fatalf("Enforce: %v, want ErrNotEnforceable", err)
		}
	})
}

// lintOptions is the configuration internal/frontend's repair findings
// search with: both moves, abstract values and static pruning.
func lintOptions() Options {
	return Options{Strategy: Mixed, Verify: core.Options{AbstractVals: true, StaticPrune: true}}
}

// TestEnforceRefutationsSound confirms with the oracle, under the
// search's own options, that every candidate a cached witness refuted is
// non-robust: at the defaults, and without -short also under the lint
// configuration and under SRA.
func TestEnforceRefutationsSound(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"lint", lintOptions()},
		{"sra", Options{Verify: core.Options{Model: core.ModelSRA, AbstractVals: true}}},
	}
	defer func() { onReplay = nil }()
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.name != "default" {
				t.Skip("the default configuration covers -short")
			}
			vopts := verifyOptions(c.opts.Verify)
			var p *lang.Program
			refuted := 0
			onReplay = func(pls []Placement, _ [][]lang.Tid, ok bool) {
				if !ok {
					return
				}
				refuted++
				v, err := core.Verify(Apply(p, pls), vopts)
				if err != nil {
					t.Fatalf("%s %v: %v", p.Name, pls, err)
				}
				if v.Robust {
					t.Fatalf("%s: a witness refuted the robust candidate %v", p.Name, pls)
				}
			}
			for _, e := range repairRows(t) {
				for _, s := range []Strategy{Fences, Mixed} {
					if s == Mixed && slices.Contains(heavyRepair, e.Name) {
						continue
					}
					opts := c.opts
					opts.Strategy = s
					p = e.Program()
					if _, _, err := Enforce(p, opts); err != nil && !errors.Is(err, ErrNotEnforceable) {
						t.Fatalf("%s: %v", e.Name, err)
					}
				}
			}
			if refuted == 0 {
				t.Fatal("no candidate was refuted by a witness")
			}
		})
	}
}

// replayOnCopy is the reference replay: witness w on a stepper built for
// Apply(p, pls) itself, running each fence a scheduled thread has
// reached before its own step and flushing pending fences at the end.
func replayOnCopy(t *testing.T, p *lang.Program, pls []Placement, w []lang.Tid, opts core.Options) bool {
	q := Apply(p, pls)
	st, err := core.NewStepper(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reset() != nil {
		return false
	}
	if st.Violation() != nil {
		return true
	}
	step := func(tid lang.Tid) (violated, stop bool) {
		if _, ok, fail := st.Step(tid); !ok || fail != nil {
			return false, true
		}
		violated = st.Violation() != nil
		return violated, violated
	}
	fences := func(tid lang.Tid) (violated, stop bool) {
		for {
			op := st.Op(tid)
			if op.Kind != prog.OpFADD || q.Threads[tid].Insts[op.PC].Reg != lang.Reg(p.Threads[tid].NumRegs) {
				return false, false
			}
			if violated, stop = step(tid); stop {
				return violated, stop
			}
		}
	}
	for _, tid := range w {
		if violated, stop := fences(tid); stop {
			return violated
		}
		if violated, stop := step(tid); stop {
			return violated
		}
	}
	for tid := range q.Threads {
		if violated, stop := fences(lang.Tid(tid)); stop {
			return violated
		}
	}
	return false
}

// TestReplayMatchesCopy checks every candidate the search replays on the
// non-robust Figure 7 rows against the reference replay of the same
// witnesses on the candidate's own program. Without StaticPrune the
// shared machine must refute exactly when the reference does; with it,
// the reference runs the pruned monitor and the shared machine (always
// unpruned) must refute at least whenever the reference does.
func TestReplayMatchesCopy(t *testing.T) {
	configs := []struct {
		name  string
		opts  Options
		exact bool
	}{
		{"fences", Options{Strategy: Fences}, true},
		{"mixed", Options{Strategy: Mixed}, true},
		{"fences-prune", Options{Strategy: Fences, Verify: core.Options{AbstractVals: true, StaticPrune: true}}, false},
		{"mixed-prune", lintOptions(), false},
	}
	defer func() { onReplay = nil }()
	for _, e := range nonRobust(litmus.Fig7()) {
		p := e.Program()
		for _, c := range configs {
			t.Run(e.Name+"/"+c.name, func(t *testing.T) {
				vopts := verifyOptions(c.opts.Verify)
				replays := 0
				onReplay = func(pls []Placement, witness [][]lang.Tid, refuted bool) {
					replays++
					ref := slices.ContainsFunc(witness, func(w []lang.Tid) bool {
						return replayOnCopy(t, p, pls, w, vopts)
					})
					if ref && !refuted || c.exact && refuted && !ref {
						t.Fatalf("candidate %v: shared machine refutes %v, replay on its own program %v", pls, refuted, ref)
					}
				}
				if _, _, err := Enforce(p, c.opts); err != nil && !errors.Is(err, ErrNotEnforceable) {
					t.Fatal(err)
				}
				if replays == 0 {
					t.Fatal("no candidate was replayed")
				}
			})
		}
	}
}

// TestEnforceConcurrent runs repairs of the non-robust Figure 7 rows
// from four goroutines at once, under the lint configuration, with the
// same row in flight on two of them: every result must equal the
// sequential one.
func TestEnforceConcurrent(t *testing.T) {
	rows := nonRobust(litmus.Fig7())
	type result struct {
		pls []Placement
		err error
	}
	want := make([]result, len(rows))
	for i, e := range rows {
		pls, _, err := Enforce(e.Program(), lintOptions())
		want[i] = result{pls, err}
	}
	const goroutines = 4
	got := make([][]result, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		got[g] = make([]result, len(rows))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Goroutines 0 and 1 start on the same row.
			for k := range rows {
				i := (k + max(g-1, 0)) % len(rows)
				pls, _, err := Enforce(rows[i].Program(), lintOptions())
				got[g][i] = result{pls, err}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, r := range got[g] {
			if !errors.Is(r.err, want[i].err) || !slices.Equal(r.pls, want[i].pls) {
				t.Errorf("goroutine %d, %s: %v %v, sequential %v %v", g, rows[i].Name, r.pls, r.err, want[i].pls, want[i].err)
			}
		}
	}
}

// TestEnforceCanceled: a cancelled context stops the search with
// ErrCanceled, whether it fired before the search or during a run of
// refutations that never reach the oracle.
func TestEnforceCanceled(t *testing.T) {
	e, _ := litmus.Get("lamport2-sc")
	t.Run("before", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		pls, _, err := Enforce(e.Program(), Options{Verify: core.Options{AbstractVals: true, Ctx: ctx}})
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("err = %v (placements %v), want ErrCanceled", err, pls)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("cancelled search took %v", d)
		}
	})
	t.Run("during", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		late := 0
		onReplay = func(_ []Placement, _ [][]lang.Tid, refuted bool) {
			if !refuted {
				return
			}
			if ctx.Err() != nil {
				late++
			}
			cancel()
		}
		defer func() { onReplay = nil }()
		pls, _, err := Enforce(e.Program(), Options{Verify: core.Options{AbstractVals: true, Ctx: ctx}})
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("err = %v (placements %v), want ErrCanceled", err, pls)
		}
		if late > 0 {
			t.Errorf("%d candidates refuted after the cancellation", late)
		}
	})
}

// TestEnforceKeepsVerifyOptions sets each non-func field of core.Options
// on its own and checks that the oracle configuration keeps it instead
// of falling back to the defaults; a field added to core.Options but not
// to verifyOptions' zero test fails here.
func TestEnforceKeepsVerifyOptions(t *testing.T) {
	typ := reflect.TypeOf(core.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o core.Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Func:
			continue
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
		case reflect.Uint8:
			v.SetUint(1)
		case reflect.Interface:
			v.Set(reflect.ValueOf(context.Background()))
		default:
			t.Fatalf("field %s: no test value for kind %s", f.Name, f.Type.Kind())
		}
		got := verifyOptions(o)
		if !reflect.DeepEqual(got, o) {
			t.Errorf("setting only %s: oracle options %+v, want %+v", f.Name, got, o)
		}
	}
	if got := verifyOptions(core.Options{}); !reflect.DeepEqual(got, core.DefaultOptions()) {
		t.Errorf("zero options resolve to %+v, want the defaults", got)
	}
}

// TestMachineInitialFence: a thread that jumps over its first memory
// instruction starts at a fence site. Switched on, that fence must be
// the thread's first operation after Reset, as it is on the candidate's
// own program; switched off, the read behind it is.
func TestMachineInitialFence(t *testing.T) {
	p := parser.MustParse(`
program jump
vals 2
locs x y
thread t
  goto L
  x := 1
L:
  r := y
end
thread u
  y := 1
end
`)
	cands := candidates(p, Fences)
	if want := []Placement{{Kind: InsertFence, Tid: 0, At: 2}}; !slices.Equal(cands, want) {
		t.Fatalf("candidates %v, want %v", cands, want)
	}
	m, err := newMachine(p, cands, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.set([]int{0}, true)
	if m.st.Reset() != nil || !m.atFence(0) {
		t.Fatalf("site on: thread 0 starts at %+v, want the fence", m.st.Op(0))
	}
	m.set([]int{0}, false)
	if m.st.Reset() != nil || m.st.Op(0).Kind != prog.OpRead {
		t.Fatalf("site off: thread 0 starts at %+v, want the read", m.st.Op(0))
	}
}
