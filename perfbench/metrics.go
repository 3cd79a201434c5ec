package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// The metric names and units below are the ones BENCHMARK.json at the
// repository root lists; smoke_test.go keeps the two in step.

var endToEnd = []string{
	"setup_s", "wall_s", "cpu_s", "throughput_per_s",
	"verdict_ms_p50", "verdict_ms_tail", "peak_rss_mb",
}

var e2eUnits = map[string]string{
	"setup_s": "s", "wall_s": "s", "cpu_s": "s", "throughput_per_s": "1/s",
	"verdict_ms_p50": "ms", "verdict_ms_tail": "ms", "peak_rss_mb": "MB",
}

// Rows whose per-row time is a per-layer metric: the six heaviest
// fig7-ra rows, the three heaviest fig7-tso rows, and the two heaviest
// fence-repair rows.
var (
	coreRows  = []string{"rcu-offline", "nbw-w-lr-rl", "lamport2-ra", "rcu", "seqlock", "chase-lev-ra"}
	modelRows = []string{"seqlock", "rcu", "nbw-w-lr-rl"}
	fenceRows = []string{"lamport2-sc", "chase-lev-sc"}
)

// locModules are the internal packages whose non-test Go lines are
// counted one by one; cmd/ and examples/ are counted as a whole.
var locModules = []string{
	"analysis", "cluster", "core", "diffcheck", "egraph", "emit", "explore",
	"fence", "frontend", "gen", "lang", "litmus", "memra", "memsc", "memtso",
	"model", "parser", "prog", "scm", "service", "staterobust", "verkey", "vstore",
}

var layerUnits = map[string]string{
	"parser.busy_ms": "ms", "parser.parse_us_p50": "us",
	"prog.digest_us_p50": "us", "frontend.translate_ms_p50": "ms",
	"core.busy_ms": "ms", "core.states": "count", "core.states_per_s": "1/s",
	"core.ample_hits": "count", "core.metadata_bits": "bit", "core.recheck_ms": "ms",
	"model.busy_ms": "ms", "model.states": "count", "model.sc_states": "count",
	"model.weak_states": "count", "model.bound_hits": "count",
	"fence.busy_ms": "ms", "fence.placements": "count", "fence.not_enforceable": "count",
	"service.hit_ms_p50": "ms", "service.miss_ms_p50": "ms", "service.analyze_ms_p50": "ms",
	"service.job_ms_p50": "ms", "service.overhead_ms_p50": "ms",
	"service.hit_ratio": "ratio", "service.rejected": "count",
	"runtime.alloc_mb": "MB", "runtime.mallocs": "count",
	"runtime.gc_cycles": "count", "runtime.gc_pause_ms": "ms",
	"trace.overhead_s": "s",
}

// perLayer returns every per-layer metric name in report order.
func perLayer() []string {
	names := []string{
		"parser.busy_ms", "parser.parse_us_p50", "prog.digest_us_p50", "frontend.translate_ms_p50",
		"core.busy_ms", "core.states", "core.states_per_s", "core.ample_hits", "core.metadata_bits",
	}
	for _, r := range coreRows {
		names = append(names, "core.row_ms."+r)
	}
	names = append(names, "model.busy_ms", "model.states", "model.sc_states", "model.weak_states", "model.bound_hits")
	for _, r := range modelRows {
		names = append(names, "model.row_ms."+r)
	}
	names = append(names, "fence.busy_ms", "fence.placements", "fence.not_enforceable", "core.recheck_ms")
	for _, r := range fenceRows {
		names = append(names, "fence.row_ms."+r)
	}
	names = append(names,
		"service.hit_ms_p50", "service.miss_ms_p50", "service.analyze_ms_p50", "service.job_ms_p50",
		"service.overhead_ms_p50", "service.hit_ratio", "service.rejected",
		"runtime.alloc_mb", "runtime.mallocs", "runtime.gc_cycles", "runtime.gc_pause_ms",
		"trace.overhead_s")
	for _, m := range locModules {
		names = append(names, "loc."+m)
	}
	return append(names, "loc.cmd", "loc.examples", "loc.total")
}

// unitOf returns the unit of a metric; row times and line counts carry
// theirs in the name's prefix.
func unitOf(name string, units map[string]string) string {
	switch {
	case units[name] != "":
		return units[name]
	case strings.Contains(name, ".row_ms."):
		return "ms"
	case strings.HasPrefix(name, "loc."):
		return "lines"
	}
	return ""
}

// layerMetrics fills in every per-layer metric: the medians over the
// traced passes of the span sums, the exact counts, and the workload's
// own values. A layer the workload leaves idle reads 0.
func layerMetrics(traced []*tracer, mems []memDelta, counts, own map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for _, n := range perLayer() {
		m[n] = 0
	}
	perPass := func(f func(t *tracer) float64) float64 {
		var xs []float64
		for _, t := range traced {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	busy := func(prefix string) float64 {
		return perPass(func(t *tracer) float64 {
			return t.sumMs(func(s *span) bool { return strings.HasPrefix(s.Name, prefix) })
		})
	}
	row := func(name, r string) float64 {
		return perPass(func(t *tracer) float64 {
			return t.sumMs(func(s *span) bool { return s.Name == name && s.Row == r })
		})
	}
	m["parser.busy_ms"] = busy("parser.")
	m["core.busy_ms"] = busy("core.")
	m["core.recheck_ms"] = busy("core.Verify/recheck")
	m["model.busy_ms"] = busy("model.")
	m["fence.busy_ms"] = busy("fence.")
	for _, r := range coreRows {
		m["core.row_ms."+r] = row("core.Verify", r)
	}
	for _, r := range modelRows {
		m["model.row_ms."+r] = row("model.Run", r)
	}
	for _, r := range fenceRows {
		m["fence.row_ms."+r] = row("fence.Enforce", r)
	}
	pick := func(f func(d memDelta) float64) float64 {
		var xs []float64
		for _, d := range mems {
			xs = append(xs, f(d))
		}
		return median(xs)
	}
	m["runtime.alloc_mb"] = pick(func(d memDelta) float64 { return d.allocMB })
	m["runtime.mallocs"] = pick(func(d memDelta) float64 { return d.mallocs })
	m["runtime.gc_cycles"] = pick(func(d memDelta) float64 { return d.gcCycles })
	m["runtime.gc_pause_ms"] = pick(func(d memDelta) float64 { return d.gcPauseMs })
	for n, v := range counts {
		m[n] = v
	}
	for n, v := range own {
		m[n] = v
	}
	return m
}

// countLOC counts the non-test Go lines under root: per internal
// package, for cmd/ and examples/ as a whole, and in total (every .go
// file outside the benchmark's own directory and build output).
func countLOC(root string) map[string]float64 {
	m := map[string]float64{"loc.cmd": 0, "loc.examples": 0, "loc.total": 0}
	for _, mod := range locModules {
		m["loc."+mod] = 0
	}
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "perfbench" || rel == ".bench_build" || rel == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		n := float64(bytes.Count(data, []byte("\n")))
		m["loc.total"] += n
		parts := strings.Split(filepath.ToSlash(rel), "/")
		switch {
		case parts[0] == "cmd" || parts[0] == "examples":
			m["loc."+parts[0]] += n
		case parts[0] == "internal" && len(parts) > 2:
			if _, ok := m["loc."+parts[1]]; ok {
				m["loc."+parts[1]] += n
			}
		}
		return nil
	})
	return m
}
