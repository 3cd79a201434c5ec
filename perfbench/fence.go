package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fence"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/parser"
)

// fencePlacements pins the size of the minimal repair fencer finds for
// each non-robust Figure 7 row. The search enumerates repair sets
// smallest-first, so the size is fixed by the program, not by the
// search order.
var fencePlacements = map[string]int{
	"dekker-sc": 2, "peterson-sc": 4, "peterson-tso": 2, "peterson-ra-bratosz": 4,
	"lamport2-sc": 4, "lamport2-tso": 2, "cilk-the-wsq-sc": 2, "chase-lev-sc": 3, "chase-lev-tso": 2,
}

// fencerOptions is what `fencer -corpus <row>` repairs with.
func fencerOptions() fence.Options {
	return fence.Options{MaxRepairs: 4, Strategy: fence.Fences}
}

// fenceRepair repairs the nine non-robust Figure 7 rows with fencer's
// defaults and re-verifies each repaired program as rocker would.
type fenceRepair struct {
	rows   []litmus.Entry
	states float64 // states of the re-verified programs, summed (exact)
}

func setupFenceRepair(_ uint64, smoke bool) (runner, error) {
	var rows, light []litmus.Entry
	for _, e := range fig7Rows() {
		if e.RobustRA {
			continue
		}
		if _, ok := fencePlacements[e.Name]; !ok {
			return nil, fmt.Errorf("%s: no pinned repair size", e.Name)
		}
		rows = append(rows, e)
		if !slices.Contains(fenceRows, e.Name) {
			light = append(light, e)
		}
	}
	if len(rows) != len(fencePlacements) {
		return nil, fmt.Errorf("%d non-robust rows, %d pinned repair sizes", len(rows), len(fencePlacements))
	}
	if err := parseRows(rows); err != nil {
		return nil, err
	}
	// The warm-up pass leaves out the two heavy rows (about 2.0 s and
	// 1.1 s of a 4.3 s pass); the others touch every code path.
	r := &fenceRepair{rows: light}
	if err := warmUp(r); err != nil || smoke {
		return r, err
	}
	return &fenceRepair{rows: rows}, nil
}

func (r *fenceRepair) pass(t *tracer) passOut {
	out := passOut{counts: map[string]float64{
		"fence.placements": 0, "fence.not_enforceable": 0,
		"core.states": 0, "core.ample_hits": 0, "core.metadata_bits": 0,
	}}
	for _, e := range r.rows {
		t0 := time.Now()
		row := t.begin("perfbench.row", e.Name, -1)
		sp := t.begin("parser.Parse", e.Name, row)
		p, err := parser.Parse(e.Source)
		t.end(sp)
		var pls []fence.Placement
		var fixed *lang.Program
		var v *core.Verdict
		if err == nil {
			sp = t.begin("fence.Enforce", e.Name, row)
			pls, fixed, err = fence.Enforce(p, fencerOptions())
			t.end(sp)
			if err == nil {
				sp = t.begin("core.Verify/recheck", e.Name, row)
				v, err = core.Verify(fixed, rockerOptions())
				t.end(sp)
			}
		}
		t.end(row)
		out.ops++
		out.lat = append(out.lat, msSince(t0))
		switch {
		case errors.Is(err, fence.ErrNotEnforceable):
			out.counts["fence.not_enforceable"]++
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", e.Name, err))
			continue
		case err != nil:
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", e.Name, err))
			continue
		case len(pls) != fencePlacements[e.Name]:
			out.failures = append(out.failures, fmt.Sprintf("%s: %d placements, pinned %d", e.Name, len(pls), fencePlacements[e.Name]))
		case !v.Robust:
			out.failures = append(out.failures, fmt.Sprintf("%s: repaired program is not robust", e.Name))
			continue
		}
		out.counts["fence.placements"] += float64(len(pls))
		out.counts["core.states"] += float64(v.States)
		out.counts["core.ample_hits"] += float64(v.AmpleHits)
		out.counts["core.metadata_bits"] += float64(v.MetadataBits)
	}
	r.states = out.counts["core.states"]
	return out
}

func (r *fenceRepair) layers(traced []*tracer) map[string]float64 {
	return map[string]float64{"core.states_per_s": statesPerSecond(traced, r.states, func(s *span) bool {
		return s.Name == "core.Verify/recheck"
	})}
}

func (r *fenceRepair) close() error { return nil }
