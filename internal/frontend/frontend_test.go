package frontend

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/prog"
)

const mpSrc = `//rocker:vals 4
package mp

import "sync/atomic"

var data int32
var flag atomic.Int32

func producer() {
	data = 1
	flag.Store(1)
}

func consumer() {
	for flag.Load() != 1 {
	}
	if data != 1 {
		panic("lost message")
	}
}

func run() {
	go producer()
	go consumer()
}
`

func translateOne(t *testing.T, src string) *Unit {
	t.Helper()
	pkg, err := TranslateSources(map[string]string{"test.go": src})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	for _, d := range pkg.Declined {
		t.Logf("declined: %v", d)
	}
	if len(pkg.Units) != 1 {
		t.Fatalf("got %d units, want 1", len(pkg.Units))
	}
	return pkg.Units[0]
}

func TestTranslateMP(t *testing.T) {
	u := translateOne(t, mpSrc)
	p := u.Prog
	if p.ValCount != 4 {
		t.Errorf("ValCount = %d, want 4 (directive)", p.ValCount)
	}
	if len(p.Threads) != 2 {
		t.Fatalf("got %d threads, want 2", len(p.Threads))
	}
	if p.Threads[0].Name != "producer" || p.Threads[1].Name != "consumer" {
		t.Errorf("thread names = %s, %s", p.Threads[0].Name, p.Threads[1].Name)
	}
	if len(p.Locs) != 2 {
		t.Fatalf("got %d locs: %v", len(p.Locs), p.Locs)
	}
	// data is first-used by producer (thread order), and is non-atomic.
	if p.Locs[0].Name != "data" || !p.Locs[0].NA {
		t.Errorf("loc 0 = %+v, want non-atomic data", p.Locs[0])
	}
	if p.Locs[1].Name != "flag" || p.Locs[1].NA {
		t.Errorf("loc 1 = %+v, want atomic flag", p.Locs[1])
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid program: %v", err)
	}

	// The consumer's spin must be a blocking wait, not a goto loop.
	listing := EmitLit(u)
	if !strings.Contains(listing, "wait(flag = 1)") {
		t.Errorf("spin loop not lowered to wait:\n%s", listing)
	}
	if !strings.Contains(listing, "assert !(") {
		t.Errorf("panic guard not lowered to assert:\n%s", listing)
	}

	// Every instruction carries a real Go position.
	for ti, th := range u.SrcPos {
		for pc, pos := range th {
			if pos.Line == 0 {
				t.Errorf("thread %d pc %d has no source position", ti, pc)
			}
			if p.Threads[ti].Insts[pc].Line != pos.Line {
				t.Errorf("thread %d pc %d: inst.Line %d != SrcPos %d",
					ti, pc, p.Threads[ti].Insts[pc].Line, pos.Line)
			}
		}
	}

	// MP with a release store and an acquire spin is robust and race-free.
	v, err := core.Verify(p, core.Options{AbstractVals: true})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !v.Robust {
		t.Errorf("MP should be robust against RA:\n%s", core.Explain(p, v))
	}
	if v.AssertFail != nil {
		t.Errorf("assertion should hold under SC: %+v", v.AssertFail)
	}
}

func TestEmitLitRoundTrip(t *testing.T) {
	u := translateOne(t, mpSrc)
	listing := EmitLit(u)
	reparsed, err := parser.Parse(listing)
	if err != nil {
		t.Fatalf("emitted .lit does not reparse: %v\n%s", err, listing)
	}
	d1 := prog.CanonicalDigest(u.Prog)
	d2 := prog.CanonicalDigest(reparsed)
	if d1 != d2 {
		t.Errorf("reparse digest mismatch:\n%s", listing)
	}
}

func TestTranslateDeterminism(t *testing.T) {
	u1 := translateOne(t, mpSrc)
	u2 := translateOne(t, mpSrc)
	d1 := prog.CanonicalDigest(u1.Prog)
	d2 := prog.CanonicalDigest(u2.Prog)
	if d1 != d2 {
		t.Error("translating the same source twice produced different digests")
	}

	// Alpha-renaming every identifier must not change the canonical
	// digest: locations are numbered by first use, not by name.
	renamed := strings.NewReplacer(
		"data", "payload", "flag", "ready",
		"producer", "sender", "consumer", "receiver", "run", "main_unit",
	).Replace(mpSrc)
	u3 := translateOne(t, renamed)
	d3 := prog.CanonicalDigest(u3.Prog)
	if d1 != d3 {
		t.Error("alpha-renaming changed the canonical digest")
	}
}

// declineCases are sources the frontend must decline, each with the
// construct named in the decline. They also seed FuzzTranslateSources.
var declineCases = []struct {
	name      string
	src       string
	construct string
}{
	{"channel", `package p
func run() {
	ch := make(chan int)
	go func() { ch <- 1 }()
	<-ch
}`, "statement before goroutine spawn"},
	{"mutex", `package p
import "sync"
var mu sync.Mutex
func worker() { mu.Lock(); mu.Unlock() }
func run() { go worker(); go worker() }`, "unmodeled call"},
	{"pointer escape", `package p
import "sync/atomic"
var x atomic.Int32
func worker(p *atomic.Int32) { p.Store(1) }
func run() { go worker(&x); go worker(&x) }`, "non-constant goroutine argument"},
	{"unbounded loop unroll", `package p
import "sync/atomic"
var x atomic.Int32
func worker() {
	for i := 0; i < 100; i++ {
		x.Add(1)
	}
}
func run() { go worker(); go worker() }`, "oversize counted loop"},
	{"nested go", `package p
import "sync/atomic"
var x atomic.Int32
func run() {
	go func() {
		go x.Store(1)
	}()
}`, "nested goroutine"},
	{"single thread", `package p
import "sync/atomic"
var x atomic.Int32
func run() { go x.Store(1) }`, "goroutine target"},
}

func TestDeclines(t *testing.T) {
	for _, tc := range declineCases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := TranslateSources(map[string]string{"test.go": "//rocker:vals 4\n" + tc.src})
			if err != nil {
				t.Fatalf("translate: %v", err)
			}
			if len(pkg.Units) != 0 {
				t.Fatalf("unit should have been declined")
			}
			if len(pkg.Declined) != 1 {
				t.Fatalf("got %d declines, want 1: %v", len(pkg.Declined), pkg.Declined)
			}
			d := pkg.Declined[0]
			if d.Construct != tc.construct {
				t.Errorf("construct = %q (%s), want %q", d.Construct, d.Reason, tc.construct)
			}
			if d.Pos.Line == 0 {
				t.Errorf("decline has no source position: %v", d)
			}
		})
	}
}
