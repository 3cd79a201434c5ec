// Package explore provides the explicit-state search infrastructure shared
// by the repository's model checkers: visited-state stores with parent
// links for counterexample reconstruction (the concurrent Sharded, exact
// or hash-compacted, and the sequential Store of staterobust's RA/SRA
// oracle and of the reference explorers kept as test oracles), a
// concurrent key set, and one parallel search engine, the
// level-synchronous RunLevels, which runs core's Verify and VerifySC and
// the state checkers ReachableSC and CheckState. It plays the role Spin
// plays for the paper's Rocker prototype — exhaustive exploration of a
// finite LTS with trace reporting — without Spin's Promela front end,
// which this repository replaces with direct in-process state generation.
package explore

import (
	"errors"

	"repro/internal/lang"
)

// ErrBound is the one state-bound error of every checker built on this
// package: an exploration grew past its state bound (Commit.Limit), so it
// reports no verdict.
var ErrBound = errors.New("state bound exceeded")

// ErrCanceled is the one cancellation error of every checker built on
// this package, returned wrapped with the context's cause when the run's
// context (RunOpts.Ctx) is cancelled before the exploration completes. A
// cancelled run never reports a verdict: "robust so far" would be unsound.
var ErrCanceled = errors.New("exploration canceled")

// Internal tags a trace step that is not a program action. It is a one-byte
// enum rather than a description string: a Step is recorded per stored state
// in multi-million-state runs, and the string header tripled its size.
type Internal uint8

const (
	IntNone  Internal = iota
	IntEps            // explicit ε-transition (the ε-granular explorers)
	IntFlush          // TSO store-buffer flush
	// IntFused marks a stored trace link that stands for a labelled TSO
	// store and its flush; the explorer that records it splits it into
	// those two steps before reporting a trace.
	IntFused
)

func (k Internal) String() string {
	switch k {
	case IntEps:
		return "eps"
	case IntFlush:
		return "flush"
	}
	return ""
}

// Step is one transition of a run: a thread performing a labelled action.
// Internal actions (e.g. TSO flushes) set Internal to a non-IntNone tag.
//
// Perm, when nonzero, is the packed thread-symmetry permutation (PackPerm)
// a symmetry-reduced explorer applied when canonicalizing the step's
// *target* state (0 = identity, so non-reduced explorers never touch it).
// Concretize composes these per-step permutations to turn a
// canonical-quotient trace back into a run of the original program.
type Step struct {
	Tid      lang.Tid
	Lab      lang.Label
	Internal Internal
	Perm     uint32
}

// MaxPermThreads bounds thread-symmetry reduction: a permutation packs
// into Step.Perm as 4-bit slots under a flag bit, so up to 7 threads fit
// a uint32. Explorers fold no symmetry on programs with more threads.
const MaxPermThreads = 7

// PackPerm packs a (non-identity) thread permutation of at most
// MaxPermThreads threads into a Step.Perm: bit 31 flags presence, slot i
// occupies bits 4i..4i+3. Slot i of the canonical state holds what thread
// perm[i] held before canonicalization.
func PackPerm(perm []uint8) uint32 {
	p := uint32(1) << 31
	for i, v := range perm {
		p |= uint32(v) << (4 * i)
	}
	return p
}

// SortPerm fills perm with the thread permutation that canonicalizes a
// state under thread symmetry: within every class, member slots are
// insertion-sorted (classes are tiny) by cmp, a total order on the
// threads' per-thread content that is zero only for identical content,
// so any tie order yields the same canonical state. Slot i then holds
// thread perm[i]. Reports whether the result is the identity.
func SortPerm(classes [][]int, perm []uint8, cmp func(a, b int) int) bool {
	for i := range perm {
		perm[i] = uint8(i)
	}
	identity := true
	for _, cls := range classes {
		for i := 1; i < len(cls); i++ {
			for j := i; j > 0; j-- {
				a, b := perm[cls[j-1]], perm[cls[j]]
				if cmp(int(a), int(b)) <= 0 {
					break
				}
				perm[cls[j-1]], perm[cls[j]] = b, a
				identity = false
			}
		}
	}
	return identity
}

// unpackPerm reverses PackPerm into dst[:n].
func unpackPerm(p uint32, n int, dst []uint8) []uint8 {
	for i := 0; i < n; i++ {
		dst[i] = uint8(p >> (4 * i) & 0xf)
	}
	return dst[:n]
}

// Concretize rewrites a canonical-quotient trace of an n-thread program,
// in place, into a run of the original program: each step's thread id —
// program, ε and flush steps alike — is mapped through the composed
// permutation of the states before it, and the per-step permutations are
// cleared. It returns the final slot-to-thread map, for remapping thread
// ids recorded at the trace's last state (violations, assertion
// failures). A trace without permutations is left as it is.
func Concretize(trace []Step, n int) []uint8 {
	sigma := make([]uint8, n)
	for i := range sigma {
		sigma[i] = uint8(i)
	}
	var pbuf, ns [MaxPermThreads]uint8
	for k := range trace {
		st := &trace[k]
		st.Tid = lang.Tid(sigma[st.Tid])
		if st.Perm != 0 {
			p := unpackPerm(st.Perm, n, pbuf[:])
			for i := 0; i < n; i++ {
				ns[i] = sigma[p[i]]
			}
			copy(sigma, ns[:n])
			st.Perm = 0
		}
	}
	return sigma
}

// grown returns s with room to append at least one more element, doubling
// the capacity of already-large slices. Plain append's growth factor decays
// toward 1.25× for large slices, which makes the cumulative bytes allocated
// by a growing multi-million-element slice approach 5× its final size;
// doubling keeps the cumulative total within 2×. Used on every per-state
// slice of the stores.
func grown[T any](s []T) []T {
	if len(s) == cap(s) && cap(s) >= 1024 {
		ns := make([]T, len(s), 2*cap(s))
		copy(ns, s)
		return ns
	}
	return s
}
