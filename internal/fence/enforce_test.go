package fence

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/litmus"
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
	var rows []litmus.Entry
	for _, e := range litmus.All() {
		if e.RobustRA || e.Big || (testing.Short() && slices.Contains(heavyRepair, e.Name)) {
			continue
		}
		rows = append(rows, e)
	}
	if len(rows) == 0 {
		t.Fatal("no non-robust corpus rows")
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

// TestEnforceRefutationsSound confirms with the oracle that every
// candidate a cached witness refuted is non-robust.
func TestEnforceRefutationsSound(t *testing.T) {
	var row string
	refuted := 0
	onRefute = func(q *lang.Program) {
		refuted++
		v, err := core.Verify(q, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		if v.Robust {
			t.Fatalf("%s: a witness refuted a robust candidate", row)
		}
	}
	defer func() { onRefute = nil }()
	for _, e := range repairRows(t) {
		for _, s := range []Strategy{Fences, Mixed} {
			if s == Mixed && slices.Contains(heavyRepair, e.Name) {
				continue
			}
			row = e.Name
			if _, _, err := Enforce(e.Program(), Options{Strategy: s}); err != nil && !errors.Is(err, ErrNotEnforceable) {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	}
	if refuted == 0 {
		t.Fatal("no candidate was refuted by a witness")
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
		onRefute = func(*lang.Program) {
			if ctx.Err() != nil {
				late++
			}
			cancel()
		}
		defer func() { onRefute = nil }()
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
