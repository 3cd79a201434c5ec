package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/staterobust"
)

// rockerOptions is what `rocker -corpus <row>` verifies with: RA,
// abstract values, partial-order reduction on, every core a worker.
func rockerOptions() core.Options {
	return core.Options{Model: core.ModelRA, AbstractVals: true, Reduce: true}
}

// sweepTSO is what `sweep -models tso` runs a row with: its 2M-state
// budget, every core a worker, reduction on.
func sweepTSO() model.RunOpts {
	return model.RunOpts{MaxStates: 2_000_000, Reduce: true}
}

// fig7Rows returns the Figure 7 rows the CLIs verify by default (every
// row but the Big one, lamport2-3-ra, which peaks at 7.7 GB in 61 s),
// minus skip, in the paper's order as the CLIs run them.
func fig7Rows(skip ...string) []litmus.Entry {
	var rows []litmus.Entry
next:
	for _, e := range litmus.Fig7() {
		for _, s := range skip {
			if e.Name == s {
				continue next
			}
		}
		if !e.Big {
			rows = append(rows, e)
		}
	}
	return rows
}

// parseRows checks that every row parses, as the CLIs' loaders do.
func parseRows(rows []litmus.Entry) error {
	for _, e := range rows {
		if _, err := parser.Parse(e.Source); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}

// warmUp runs one untraced pass over a set-up workload and fails the
// set-up on any failed operation.
func warmUp(r runner) error {
	if out := r.pass(nil); len(out.failures) > 0 {
		return fmt.Errorf("warm-up pass: %s", out.failures[0])
	}
	return nil
}

// fig7RA verifies the Figure 7 rows as rocker ships, against litmus's
// RobustRA verdicts.
type fig7RA struct {
	rows   []litmus.Entry
	states float64 // states of the robust rows, summed (exact)
}

func setupFig7RA(_ uint64, _ bool) (runner, error) {
	r := &fig7RA{rows: fig7Rows()}
	if err := parseRows(r.rows); err != nil {
		return nil, err
	}
	return r, warmUp(r)
}

func (r *fig7RA) pass(t *tracer) passOut {
	out := passOut{counts: map[string]float64{"core.states": 0, "core.ample_hits": 0, "core.metadata_bits": 0}}
	for _, e := range r.rows {
		t0 := time.Now()
		row := t.begin("perfbench.row", e.Name, -1)
		sp := t.begin("parser.Parse", e.Name, row)
		p, err := parser.Parse(e.Source)
		t.end(sp)
		var v *core.Verdict
		if err == nil {
			sp = t.begin("core.Verify", e.Name, row)
			v, err = core.Verify(p, rockerOptions())
			t.end(sp)
		}
		t.end(row)
		out.ops++
		out.lat = append(out.lat, msSince(t0))
		switch {
		case err != nil:
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", e.Name, err))
			continue
		case v.Robust != e.RobustRA:
			out.failures = append(out.failures, fmt.Sprintf("%s: robust=%v, litmus says %v", e.Name, v.Robust, e.RobustRA))
		}
		// Only full explorations have worker-count-independent state
		// counts; a non-robust row stops at its first violation.
		if v.Robust {
			out.counts["core.states"] += float64(v.States)
			out.counts["core.ample_hits"] += float64(v.AmpleHits)
		}
		out.counts["core.metadata_bits"] += float64(v.MetadataBits)
	}
	r.states = out.counts["core.states"]
	return out
}

func (r *fig7RA) layers(traced []*tracer) map[string]float64 {
	robust := map[string]bool{}
	for _, e := range r.rows {
		robust[e.Name] = e.RobustRA
	}
	return map[string]float64{"core.states_per_s": statesPerSecond(traced, r.states, func(s *span) bool {
		return s.Name == "core.Verify" && robust[s.Row]
	})}
}

func (r *fig7RA) close() error { return nil }

// statesPerSecond divides an exact per-pass state count by the time of
// the spans that explored it, per traced pass, and returns the median.
func statesPerSecond(traced []*tracer, states float64, match func(s *span) bool) float64 {
	var xs []float64
	for _, t := range traced {
		if ms := t.sumMs(match); ms > 0 {
			xs = append(xs, states/(ms/1000))
		}
	}
	return median(xs)
}

// tsoHeavy are the rows that carry almost all of a fig7-tso pass:
// seqlock (1,472,252 states), rcu (757,219) and nbw-w-lr-rl, which
// exhausts the 2M-state budget.
var tsoHeavy = []string{"seqlock", "rcu", "nbw-w-lr-rl"}

// tsoBoundRow is the one row whose expected outcome under the shipped
// budget is a reported bound hit rather than a verdict.
const tsoBoundRow = "nbw-w-lr-rl"

// tsoLightReps is how many times a fig7-tso pass checks each light row;
// the heavy rows run once. One pass of 24 verdicts gives the verdict
// latency too few samples, and the light rows add 0.6 s a round to a
// 23 s pass.
const tsoLightReps = 8

// fig7TSO checks the same rows with the attack-based TSO instrumentation
// at sweep's defaults, against litmus's RobustTSO verdicts.
type fig7TSO struct {
	rows []litmus.Entry
	reps int // rounds over the light rows; the first round runs every row
}

func setupFig7TSO(_ uint64, smoke bool) (runner, error) {
	all := fig7Rows()
	if err := parseRows(all); err != nil {
		return nil, err
	}
	// The warm-up pass leaves out the heavy rows: it touches every code
	// path in 0.6 s, where a full pass takes over 20 s.
	light := &fig7TSO{rows: fig7Rows(tsoHeavy...), reps: 1}
	if err := warmUp(light); err != nil || smoke {
		return light, err
	}
	return &fig7TSO{rows: all, reps: tsoLightReps}, nil
}

func (r *fig7TSO) pass(t *tracer) passOut {
	out := passOut{counts: map[string]float64{"model.states": 0, "model.sc_states": 0, "model.weak_states": 0, "model.bound_hits": 0}}
	for rep := 0; rep < r.reps; rep++ {
		for _, e := range r.rows {
			if rep == 0 || !slices.Contains(tsoHeavy, e.Name) {
				checkTSO(t, e, &out)
			}
		}
	}
	return out
}

// checkTSO checks one row and records its outcome in out.
func checkTSO(t *tracer, e litmus.Entry, out *passOut) {
	t0 := time.Now()
	row := t.begin("perfbench.row", e.Name, -1)
	sp := t.begin("parser.Parse", e.Name, row)
	p, err := parser.Parse(e.Source)
	t.end(sp)
	var rr *model.RunResult
	if err == nil {
		sp = t.begin("model.Run", e.Name, row)
		rr, err = model.Run(model.ModeTSO, p, sweepTSO())
		t.end(sp)
	}
	t.end(row)
	out.ops++
	out.lat = append(out.lat, msSince(t0))
	switch {
	case e.Name == tsoBoundRow && (errors.Is(err, staterobust.ErrBound) || errors.Is(err, core.ErrStateBound)):
		out.counts["model.bound_hits"]++
		return
	case err != nil:
		out.failures = append(out.failures, fmt.Sprintf("%s: %v", e.Name, err))
		return
	case rr.Robust != e.RobustTSO:
		out.failures = append(out.failures, fmt.Sprintf("%s: robust=%v, litmus says %v", e.Name, rr.Robust, e.RobustTSO))
	}
	out.counts["model.states"] += float64(rr.States)
	out.counts["model.sc_states"] += float64(rr.SCStates)
	out.counts["model.weak_states"] += float64(rr.WeakStates)
}

func (r *fig7TSO) layers([]*tracer) map[string]float64 { return nil }

func (r *fig7TSO) close() error { return nil }
