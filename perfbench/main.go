// Command perfbench is the repository's benchmark: it runs one workload
// against the verifier in this process, checks every verdict against an
// oracle, and prints every metric by name and unit, ending with one JSON
// line.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash perfbench/run.sh --workload fig7-ra --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run instead.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// passOut is what one pass over a workload's inputs produced.
type passOut struct {
	ops      int
	failures []string  // one line per failed operation
	lat      []float64 // per-operation latency, ms
	// counts are exact per-layer counts; every pass must repeat them.
	counts map[string]float64
}

// runner is a set-up workload: inputs parsed or generated, oracle
// computed, server started, warm-up pass done.
type runner interface {
	// pass runs every input once and checks each output against the
	// oracle. t is nil on untraced passes.
	pass(t *tracer) passOut
	// layers returns the per-layer metrics only the workload can derive
	// from its traced passes.
	layers(traced []*tracer) map[string]float64
	close() error
}

type workload struct {
	name string
	// setup prepares the workload. The seed generates rockerd-mix's
	// traffic; the Figure 7 workloads run the fixed corpus. smoke
	// shrinks the inputs to the minimum that still covers every layer
	// the workload uses.
	setup func(seed uint64, smoke bool) (runner, error)
	// tailPct is the percentile verdict_ms_tail reports: the highest
	// on tailLadder with ten samples beyond it after minPasses passes,
	// which a run always makes. Fixing it keeps a faster or slower
	// program from moving the tail to another percentile.
	tailPct   float64
	minPasses int
}

var workloads = []workload{
	{"fig7-ra", setupFig7RA, 99, 42},          // 24 verdicts a pass, 0.14 s
	{"fig7-tso", setupFig7TSO, 90, 1},         // 171 verdicts a pass, 28 s
	{"fence-repair", setupFenceRepair, 75, 5}, // 9 repairs a pass, 4.3 s
	{"rockerd-mix", setupRockerdMix, 99, 1},   // 2000 requests a pass, 0.8 s
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

// deadline bounds one run, set-up included, so that a run that cannot
// finish exits without a result rather than hanging.
const deadline = 170 * time.Second

// result is what a run measured.
type result struct {
	e2e, layer map[string]float64
	attempted  int
	failures   []string
	facts      map[string]any
}

func main() {
	name := flag.String("workload", "", "workload to run: fig7-ra, fig7-tso, fence-repair or rockerd-mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase, s")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig7-ra|fig7-tso|fence-repair|rockerd-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", w.name, deadline)
		os.Exit(3)
	})

	res, err := measure(*w, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metrics := res.e2e
	names, units := endToEnd, e2eUnits
	if *trace == 1 {
		metrics, names, units = res.layer, perLayer(), layerUnits
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	facts, _ := json.Marshal(res.facts)
	fmt.Printf("facts %s\n", facts)
	out := map[string]any{}
	for _, n := range names {
		u := unitOf(n, units)
		fmt.Printf("metric %-32s %14.6g %s\n", n, metrics[n], u)
		out[n] = map[string]any{"value": metrics[n], "unit": u}
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(res.failures) == 0,
		"attempted": res.attempted,
		"failed":    len(res.failures),
		"metrics":   out,
	})
	fmt.Println(string(line))
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

// measure sets the workload up setupReps times, then runs passes until
// seconds have passed. A traced run alternates untraced and traced
// passes, so that the tracing overhead is the difference of their
// medians. smoke runs the workload at its smallest size.
func measure(w workload, seed uint64, seconds float64, traced, smoke bool) (*result, error) {
	var r runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(seed, smoke); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	var (
		walls, cpus [2][]float64 // [0] untraced passes, [1] traced
		lat         []float64
		ops         int
		failures    []string
		counts      map[string]float64
		tracers     []*tracer
		mems        []memDelta
		totalWall   float64
		steal0      = stealSeconds()
		start       = time.Now()
		minPasses   = w.minPasses
	)
	if smoke {
		minPasses = 1
	}
	if traced {
		minPasses *= 2
	}
	for pass := 0; pass < minPasses || time.Since(start).Seconds() < seconds || (traced && pass%2 == 1); pass++ {
		var t *tracer
		var m0 runtime.MemStats
		tracedThisPass := traced && pass%2 == 1
		if tracedThisPass {
			t = newTracer(pass)
			m0 = readMem()
		}
		c0, t0 := cpuTime(), time.Now()
		out := r.pass(t)
		wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
		k := 0
		if tracedThisPass {
			k = 1
			mems = append(mems, diffMem(m0, readMem()))
			tracers = append(tracers, t)
		}
		walls[k] = append(walls[k], wall)
		cpus[k] = append(cpus[k], cpu)
		totalWall += wall
		ops += out.ops
		lat = append(lat, out.lat...)
		failures = append(failures, out.failures...)
		if counts == nil {
			counts = out.counts
		} else {
			for _, n := range sortedKeys(out.counts) {
				if out.counts[n] != counts[n] {
					failures = append(failures, fmt.Sprintf("pass %d: exact count %s is %g, earlier passes %g", pass, n, out.counts[n], counts[n]))
				}
			}
		}
	}
	steal := stealSeconds() - steal0
	var layers map[string]float64
	if traced {
		layers = r.layers(tracers)
	}
	if err := r.close(); err != nil {
		return nil, err
	}

	sort.Float64s(lat)
	p50 := median(lat)
	tv, tp := tail(lat, w.tailPct)
	_, beyond := percentile(lat, tp)
	spread := map[string]float64{}
	for _, p := range tailLadder {
		spread[fmt.Sprint(p)], _ = percentile(lat, p)
	}
	res := &result{
		attempted: ops,
		failures:  failures,
		e2e: map[string]float64{
			"setup_s":          median(setups),
			"wall_s":           median(walls[0]),
			"cpu_s":            median(cpus[0]),
			"throughput_per_s": float64(ops) / totalWall,
			"verdict_ms_p50":   p50,
			"verdict_ms_tail":  tv,
			"peak_rss_mb":      procStatusKB("VmHWM") / 1024,
		},
		facts: map[string]any{
			"workload":        w.name,
			"nproc":           runtime.NumCPU(),
			"gomaxprocs":      runtime.GOMAXPROCS(0),
			"go":              runtime.Version(),
			"cpu":             cpuModel(),
			"steal_s":         steal,
			"passes":          len(walls[0]) + len(walls[1]),
			"attempted":       ops,
			"failed":          len(failures),
			"failed_ratio":    float64(len(failures)) / float64(max(ops, 1)),
			"latency_samples": len(lat),
			"tail_pct":        tp,
			"tail_beyond":     beyond,
			"latency_ms":      spread,
			"setup_runs_s":    setups,
			"pass_wall_s":     passQuantiles(walls[0]),
		},
	}
	if traced {
		res.layer = layerMetrics(tracers, mems, counts, layers)
		res.layer["trace.overhead_s"] = median(walls[1]) - median(walls[0])
		for n, v := range countLOC(".") {
			res.layer[n] = v
		}
		res.facts["traced_wall_s"] = median(walls[1])
		res.facts["untraced_wall_s"] = median(walls[0])
		if err := os.MkdirAll(".bench_build", 0o755); err == nil {
			path := filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
			if err := writeSpans(path, tracers); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			}
		}
	}
	return res, nil
}

// passQuantiles returns the minimum, 10th, 25th, 50th, 75th and 90th
// percentiles and the maximum of the pass times.
func passQuantiles(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q []float64
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 100} {
		v, _ := percentile(s, p)
		q = append(q, v)
	}
	return q
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
