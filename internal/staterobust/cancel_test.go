package staterobust_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/staterobust"
)

// TestCheckPreCanceled checks that a context canceled up front makes every
// state-robustness checker return ErrCanceled instead of a verdict.
func TestCheckPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := litmus.Get("ticketlock4")
	if err != nil {
		t.Fatal(err)
	}
	p := e.Program()
	lim := staterobust.Limits{Ctx: ctx, Workers: 2}
	if r, err := staterobust.CheckRA(p, lim); !errors.Is(err, staterobust.ErrCanceled) || r != nil {
		t.Errorf("CheckRA = (%v, %v), want ErrCanceled", r, err)
	}
	if r, err := staterobust.CheckTSO(p, lim); !errors.Is(err, staterobust.ErrCanceled) || r != nil {
		t.Errorf("CheckTSO = (%v, %v), want ErrCanceled", r, err)
	}
	if r, err := staterobust.CheckSRA(p, lim); !errors.Is(err, staterobust.ErrCanceled) || r != nil {
		t.Errorf("CheckSRA = (%v, %v), want ErrCanceled", r, err)
	}
	if r, err := model.CheckTSO(p, lim); !errors.Is(err, staterobust.ErrCanceled) || r != nil {
		t.Errorf("model.CheckTSO = (%v, %v), want ErrCanceled", r, err)
	}
}

// TestCheckCancelMidExploration cancels from the progress hook once the
// weak-model exploration is under way and checks every checker stops with
// ErrCanceled wrapping the context cause.
func TestCheckCancelMidExploration(t *testing.T) {
	// ticketlock4 explores ~4·10⁴ TSO compound states (and more under RA),
	// comfortably past the checkers' fixed 4096-expansion progress period.
	e, err := litmus.Get("ticketlock4")
	if err != nil {
		t.Fatal(err)
	}
	p := e.Program()
	type check struct {
		name string
		run  func(lim staterobust.Limits) error
	}
	checks := []check{
		{"RA", func(lim staterobust.Limits) error { _, err := staterobust.CheckRA(p, lim); return err }},
		{"TSO", func(lim staterobust.Limits) error { _, err := staterobust.CheckTSO(p, lim); return err }},
		{"model.CheckTSO", func(lim staterobust.Limits) error { _, err := model.CheckTSO(p, lim); return err }},
	}
	for _, c := range checks {
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Bool
		err := c.run(staterobust.Limits{
			Ctx:     ctx,
			Workers: 2,
			Progress: func(explored int) {
				if explored > 0 {
					fired.Store(true)
					cancel()
				}
			},
		})
		cancel()
		if !fired.Load() {
			t.Fatalf("%s: exploration finished before the hook fired", c.name)
		}
		if !errors.Is(err, staterobust.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want ErrCanceled wrapping context.Canceled", c.name, err)
		}
	}
}
