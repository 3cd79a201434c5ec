package litmus

import (
	"fmt"
	"strings"
)

// Figure 7 corpus, part 3: lock implementations and version-counter
// protocols — spinlock, ticket lock, seqlock (Boehm 2012) and the
// non-blocking write protocol. All are robust against RA (Figure 7): their
// synchronization flows through RMWs and message-passing shapes, with
// blocking primitives masking the benign busy-wait stalls.

// SpinlockSrc returns a parameterized test-and-set spinlock program (n
// threads, `rounds` acquisitions each) — the workload generator behind the
// spinlock rows and the scaling sweep (rocker sweep).
func SpinlockSrc(n, rounds int) string {
	return spinlockSrc(fmt.Sprintf("spinlock-n%d-r%d", n, rounds), n, rounds)
}

// TicketlockSrc returns a parameterized ticket-lock program (n threads,
// `rounds` acquisitions each).
func TicketlockSrc(n, rounds int) string {
	return ticketlockSrc(fmt.Sprintf("ticketlock-n%d-r%d", n, rounds), n, rounds)
}

// LamportSrc returns a parameterized instance of the RA-strengthened
// Lamport fast mutex with n threads.
func LamportSrc(n int) string {
	return lamportSrc(fmt.Sprintf("lamport-n%d-ra", n), n, false, true, true)
}

// spinlockSrc builds a test-and-set spinlock program: each of n threads
// acquires the lock `rounds` times (blocking CAS), runs a critical section
// with the standard overwrite check, and releases.
func spinlockSrc(name string, n, rounds int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\nvals %d\nlocs lock cs\n", name, max(3, n+1))
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "thread t%d\n", i)
		fmt.Fprintf(&b, "  it := 0\n")
		fmt.Fprintf(&b, "LOOP:\n")
		fmt.Fprintf(&b, "  BCAS(lock, 0, 1)\n")
		fmt.Fprintf(&b, "  cs := %d\n", i)
		fmt.Fprintf(&b, "  rc := cs\n")
		fmt.Fprintf(&b, "  assert rc = %d\n", i)
		fmt.Fprintf(&b, "  cs := 0\n")
		fmt.Fprintf(&b, "  lock := 0\n")
		fmt.Fprintf(&b, "  it := it + 1\n")
		fmt.Fprintf(&b, "  if it < %d goto LOOP\n", rounds)
		fmt.Fprintf(&b, "end\n")
	}
	return b.String()
}

// ticketlockSrc builds a ticket lock: FADD on the ticket dispenser, a
// blocking wait on the serving counter, and a serving handover on exit.
func ticketlockSrc(name string, n, rounds int) string {
	tickets := n*rounds + 1
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\nvals %d\nlocs next serving cs\n", name, max(tickets+1, n+1))
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "thread t%d\n", i)
		fmt.Fprintf(&b, "  it := 0\n")
		fmt.Fprintf(&b, "LOOP:\n")
		fmt.Fprintf(&b, "  my := FADD(next, 1)\n")
		fmt.Fprintf(&b, "  wait(serving = my)\n")
		fmt.Fprintf(&b, "  cs := %d\n", i)
		fmt.Fprintf(&b, "  rc := cs\n")
		fmt.Fprintf(&b, "  assert rc = %d\n", i)
		fmt.Fprintf(&b, "  cs := 0\n")
		fmt.Fprintf(&b, "  serving := my + 1\n")
		fmt.Fprintf(&b, "  it := it + 1\n")
		fmt.Fprintf(&b, "  if it < %d goto LOOP\n", rounds)
		fmt.Fprintf(&b, "end\n")
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func init() {
	register(Entry{
		Name: "spinlock", RobustRA: true, RobustTSO: true, Fig7: true, Threads: 2,
		Source: spinlockSrc("spinlock", 2, 2),
	})
	register(Entry{
		Name: "spinlock4", RobustRA: true, RobustTSO: true, Fig7: true, Threads: 4,
		Source: spinlockSrc("spinlock4", 4, 1),
	})
	register(Entry{
		Name: "ticketlock", RobustRA: true, RobustTSO: true, Fig7: true, Threads: 2,
		Source: ticketlockSrc("ticketlock", 2, 2),
	})
	register(Entry{
		Name: "ticketlock4", RobustRA: true, RobustTSO: true, Fig7: true, Threads: 4,
		Source: ticketlockSrc("ticketlock4", 4, 1),
	})

	// seqlock — Boehm, "Can Seqlocks get along with programming language
	// memory models?" (2012): two writers claim the sequence counter with
	// a CAS (odd = writer active), update the data, and release with the
	// next even value; two readers retry until they observe the same even
	// sequence number around a consistent data snapshot. Robust against
	// RA with no fences — the paper's point that seqlocks were designed
	// with relaxed memory in mind.
	register(Entry{
		Name: "seqlock", RobustRA: true, RobustTSO: true, Fig7: true, Threads: 4,
		Source: `
program seqlock
vals 5
locs seq d1 d2
thread w1
CLAIM:
  c := seq
  r := c % 2
  if r = 1 goto CLAIM
  a := CAS(seq, c, c + 1)
  if a != c goto CLAIM
  d1 := 1
  d2 := 1
  seq := c + 2
end
thread w2
CLAIM:
  c := seq
  r := c % 2
  if r = 1 goto CLAIM
  a := CAS(seq, c, c + 1)
  if a != c goto CLAIM
  d1 := 2
  d2 := 2
  seq := c + 2
end
thread r1
RETRY:
  s1 := seq
  r := s1 % 2
  if r = 1 goto RETRY
  a := d1
  b := d2
  s2 := seq
  if s2 != s1 goto RETRY
  assert a = b
end
thread r2
RETRY:
  s1 := seq
  r := s1 % 2
  if r = 1 goto RETRY
  a := d1
  b := d2
  s2 := seq
  if s2 != s1 goto RETRY
  assert a = b
end
`})

	// nbw-w-lr-rl — a non-blocking write protocol (Kopetz's NBW shape,
	// from the Trencher benchmark family): a single writer versions the
	// data with a counter (odd while writing), and three readers (the
	// "local" and "remote" readers of the benchmark name) retry until
	// they see a stable even version. Same synchronization skeleton as
	// the seqlock reader side, with a writer that owns the counter.
	register(Entry{
		Name: "nbw-w-lr-rl", RobustRA: true, RobustTSO: true, Fig7: true, Threads: 4,
		Source: `
program nbw-w-lr-rl
vals 5
locs ver d1 d2
thread writer
  ver := 1
  d1 := 1
  d2 := 1
  ver := 2
  ver := 3
  d1 := 2
  d2 := 2
  ver := 4
end
thread lr
RETRY:
  s1 := ver
  r := s1 % 2
  if r = 1 goto RETRY
  a := d1
  b := d2
  s2 := ver
  if s2 != s1 goto RETRY
  assert a = b
end
thread rl1
RETRY:
  s1 := ver
  r := s1 % 2
  if r = 1 goto RETRY
  a := d1
  b := d2
  s2 := ver
  if s2 != s1 goto RETRY
  assert a = b
end
thread rl2
RETRY:
  s1 := ver
  r := s1 % 2
  if r = 1 goto RETRY
  a := d1
  b := d2
  s2 := ver
  if s2 != s1 goto RETRY
  assert a = b
end
`})
}
