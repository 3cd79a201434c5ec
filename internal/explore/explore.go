// Package explore provides the explicit-state search infrastructure shared
// by the repository's model checkers: visited-state stores with parent
// links for counterexample reconstruction (sequential and sharded/
// concurrent, exact and hash-compacted), a concurrent key set, a FIFO
// frontier, and two parallel search engines: work-sharing (RunParallel)
// and level-synchronous (RunLevels). It plays the role Spin plays for
// the paper's Rocker prototype — exhaustive exploration of a finite LTS
// with trace reporting — without Spin's Promela front end, which this
// repository replaces with direct in-process state generation, and with
// Spin's multi-core mode replaced by RunParallel over a Sharded store.
package explore

import "repro/internal/lang"

// Internal tags a trace step that is not a program action. It is a one-byte
// enum rather than a description string: a Step is recorded per stored state
// in multi-million-state runs, and the string header tripled its size.
type Internal uint8

const (
	IntNone  Internal = iota
	IntEps            // explicit ε-transition (the ε-granular explorers)
	IntFlush          // TSO store-buffer flush
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
// Perm, when nonzero, is the packed thread-symmetry permutation the
// partial-order reduction applied when canonicalizing the step's *target*
// state (packed and interpreted by internal/core; 0 = identity, so
// non-reduced explorers never touch it). Trace reconstruction composes
// these per-step permutations to concretize a canonical-quotient trace
// back into a run of the original program.
type Step struct {
	Tid      lang.Tid
	Lab      lang.Label
	Internal Internal
	Perm     uint32
}

// grown returns s with room to append at least one more element, doubling
// the capacity of already-large slices. Plain append's growth factor decays
// toward 1.25× for large slices, which makes the cumulative bytes allocated
// by a growing multi-million-element slice approach 5× its final size;
// doubling keeps the cumulative total within 2×. Used on every per-state
// slice of the stores and the frontier.
func grown[T any](s []T) []T {
	if len(s) == cap(s) && cap(s) >= 1024 {
		ns := make([]T, len(s), 2*cap(s))
		copy(ns, s)
		return ns
	}
	return s
}

// Queue is a FIFO frontier of state payloads of type T paired with their
// store ids.
type Queue[T any] struct {
	items []QItem[T]
	head  int
}

// QItem pairs a payload with its store id.
type QItem[T any] struct {
	ID int32
	St T
}

// Push enqueues a state.
func (q *Queue[T]) Push(id int32, st T) {
	q.items = append(grown(q.items), QItem[T]{id, st})
}

// Pop dequeues the oldest state; ok is false when the queue is empty.
func (q *Queue[T]) Pop() (QItem[T], bool) {
	if q.head >= len(q.items) {
		return QItem[T]{}, false
	}
	it := q.items[q.head]
	var zero T
	q.items[q.head].St = zero // release payload memory early
	q.head++
	if q.head > 4096 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		// Zero the vacated tail: after the copy the backing array still
		// holds a second reference to every live payload past n, which
		// would keep large frontiers' payloads reachable until they are
		// overwritten by future pushes (if ever).
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return it, true
}

// Len returns the number of queued states.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }
