package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
)

// matrixDefaultMax bounds each matrix cell when -max is unset: large
// enough for every feasible corpus row under every mode, small enough
// that a pathological product (nbw-w-lr-rl under state-tso) degrades
// to a "bound" cell instead of hanging the table.
const matrixDefaultMax = 2_000_000

// matrixCell is one (program, mode) cell of the cross-model verdict
// matrix; the JSON shape is the BENCH_models.json contract.
type matrixCell struct {
	Program string `json:"program"`
	Mode    string `json:"mode"`
	// Status: "ok" (verdict below is meaningful), "bound" (state budget
	// exhausted), "timeout" (deadline), or "skipped" (Big row).
	Status     string `json:"status"`
	Robust     bool   `json:"robust"`
	States     int    `json:"states,omitempty"`
	SCStates   int    `json:"scStates,omitempty"`
	WeakStates int    `json:"weakStates,omitempty"`
	// BufBoundHit: the TSO buffer capacity inhibited a write, so the
	// verdict holds only up to that capacity (printed as "bufcap").
	BufBoundHit bool    `json:"bufBoundHit,omitempty"`
	ElapsedMs   float64 `json:"elapsedMs,omitempty"`

	text  string         // the rendered cell: "✓ 15", "bound", "timeout"
	trace []explore.Step // the witness of a ✗ verdict
}

// runCell answers one mode's question about one program and renders the
// cell: ✓/✗ plus the explored-state count, or the reason no verdict
// exists. opts.Ctx carries the cell's deadline.
func runCell(name, mode string, p *lang.Program, opts model.RunOpts) (matrixCell, error) {
	c := matrixCell{Program: name, Mode: mode, Status: "ok"}
	rr, err := model.Run(mode, p, opts)
	switch {
	case err == nil:
		c.Robust = rr.Robust
		c.States = rr.States
		c.SCStates = rr.SCStates
		c.WeakStates = rr.WeakStates
		c.BufBoundHit = rr.BufBoundHit
		c.ElapsedMs = float64(rr.Elapsed) / float64(time.Millisecond)
		c.text = model.Cell(rr)
		c.trace = rr.Trace
	case errors.Is(err, explore.ErrBound):
		c.Status = "bound"
	case errors.Is(err, explore.ErrCanceled):
		c.Status = "timeout"
	default:
		return c, fmt.Errorf("%s/%s: %w", name, mode, err)
	}
	if c.text == "" {
		c.text = c.Status
	}
	return c, nil
}

// matrixOne runs every mode on one program, one line per mode, each ✗
// cell followed by its witness run when witness is set. The status is 1
// when any cell is ✗.
func matrixOne(w io.Writer, p *lang.Program, modes []string, opts model.RunOpts, witness bool) ([]matrixCell, int, error) {
	var cells []matrixCell
	status := 0
	for _, mode := range modes {
		c, err := runCell(p.Name, mode, p, opts)
		if err != nil {
			return nil, 0, err
		}
		cells = append(cells, c)
		fmt.Fprintf(w, "%-10s %s\n", mode, c.text)
		if c.Status == "ok" && !c.Robust {
			status = 1
			if witness {
				fmt.Fprint(w, core.FormatTrace(p, c.trace))
			}
		}
	}
	return cells, status, nil
}

// matrixAll prints the cross-model verdict matrix over the whole corpus,
// one row per program, one column per mode. Each cell runs under its own
// deadline, so one slow cell cannot turn the cells after it into
// timeouts.
func matrixAll(w io.Writer, modes []string, opts model.RunOpts, timeout time.Duration) ([]matrixCell, error) {
	fmt.Fprintf(w, "%-22s", "program")
	for _, m := range modes {
		fmt.Fprintf(w, "  %-12s", m)
	}
	fmt.Fprintln(w)
	var cells []matrixCell
	for _, e := range litmus.All() {
		if e.Big {
			for _, mode := range modes {
				cells = append(cells, matrixCell{Program: e.Name, Mode: mode, Status: "skipped"})
			}
			fmt.Fprintf(w, "%-22s  (skipped: multi-minute state space; use -corpus %s)\n", e.Name, e.Name)
			continue
		}
		p := e.Program()
		fmt.Fprintf(w, "%-22s", e.Name)
		for _, mode := range modes {
			ctx, cancel := deadline(timeout)
			opts.Ctx = ctx
			c, err := runCell(e.Name, mode, p, opts)
			cancel()
			if err != nil {
				fmt.Fprintln(w)
				return nil, err
			}
			cells = append(cells, c)
			// ✓/✗ are multi-byte; pad on rune width.
			fmt.Fprintf(w, "  %s%s", c.text, strings.Repeat(" ", max(0, 12-len([]rune(c.text)))))
		}
		fmt.Fprintln(w)
	}
	return cells, nil
}

// writeCells writes the matrix as {modes, cells} JSON to path.
func writeCells(stderr io.Writer, path string, modes []string, cells []matrixCell) error {
	doc := struct {
		Modes []string     `json:"modes"`
		Cells []matrixCell `json:"cells"`
	}{modes, cells}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "rocker: wrote %d cells to %s\n", len(cells), path)
	return nil
}
