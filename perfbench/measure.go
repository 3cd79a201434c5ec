package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one call the benchmark made into a public function of the
// program, named "<module>.<Func>" (suffixed with "/<role>" where one
// function serves two roles in a workload). Row names the input, Parent
// the span that caused it (-1 for none), and Start/End are offsets from
// the start of the traced pass.
type span struct {
	Pass   int     `json:"pass"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Row    string  `json:"row,omitempty"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
}

// tracer keeps the spans of one traced pass in memory. A nil *tracer
// records nothing, so untraced passes pay one nil check per call. It is
// safe for concurrent use.
type tracer struct {
	pass  int
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(pass int) *tracer { return &tracer{pass: pass, t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, row string, parent int) int {
	if t == nil {
		return -1
	}
	now := msSince(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Pass: t.pass, ID: id, Parent: parent, Name: name, Row: row, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := msSince(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// sumMs sums the durations of the spans that match.
func (t *tracer) sumMs(match func(s *span) bool) float64 {
	var ms float64
	for i := range t.spans {
		if s := &t.spans[i]; match(s) {
			ms += s.End - s.Start
		}
	}
	return ms
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// cpuTime returns the process's user+sys CPU time so far. The kernel
// charges stolen time to no process, so steal does not count here.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds returns the machine-wide CPU steal time so far, from the
// "cpu" line of /proc/stat (in USER_HZ ticks of 1/100 s).
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, _ := strconv.ParseFloat(fields[8], 64)
			return ticks / 100
		}
	}
	return 0
}

// procStatusKB returns a "VmXxx:" field of /proc/self/status in kB.
func procStatusKB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb
		}
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memDelta is the allocation and GC activity between two MemStats.
type memDelta struct{ allocMB, mallocs, gcCycles, gcPauseMs float64 }

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		mallocs:   float64(b.Mallocs - a.Mallocs),
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples strictly beyond that rank.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first. It stops at p99: on a shared 2-vCPU machine the slowest 0.1%
// of rockerd-mix requests are 10-60 ms scheduling outliers, and their
// p99.9 moved by a third between runs of the same code.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of sorted on tailLadder, from
// at most pct down, that has at least ten samples beyond it, with that
// percentile.
func tail(sorted []float64, pct float64) (value, p float64) {
	for _, p := range tailLadder {
		if p > pct {
			continue
		}
		if v, beyond := percentile(sorted, p); beyond >= 10 {
			return v, p
		}
	}
	v, _ := percentile(sorted, 50)
	return v, 50
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// writeSpans writes the traced passes' spans as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
