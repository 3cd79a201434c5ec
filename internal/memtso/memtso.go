// Package memtso implements an operational x86-TSO memory subsystem
// (Owens, Sarkar & Sewell 2009): a global store plus one FIFO store buffer
// per thread. Writes enter the issuing thread's buffer; an internal flush
// action moves the oldest buffered write to the global store; reads forward
// from the newest buffered write to the same location in the thread's own
// buffer, falling back to the global store; RMWs require an empty buffer
// and act atomically on the store (and thereby fence, which is why the
// paper's FADD-encoded SC fences are strong on TSO).
//
// This machine is the substrate for the repository's stand-in for the
// Trencher baseline of the paper's Figure 7 (see DESIGN.md): a precise
// state-robustness check of program states reachable under TSO versus
// under SC. Store buffers are bounded by a configurable capacity; the
// explorer records whether the bound was ever hit so a non-limiting bound
// can be certified.
package memtso

import (
	"encoding/binary"

	"repro/internal/lang"
)

// BufEntry is one pending write in a store buffer.
type BufEntry struct {
	Loc lang.Loc
	Val lang.Val
}

// State is a TSO memory state: the global store plus per-thread FIFO
// buffers (oldest first).
type State struct {
	Mem  []lang.Val
	Bufs [][]BufEntry
}

// New returns the initial TSO state (zeroed store, empty buffers).
func New(numLocs, numThreads int) *State {
	return &State{
		Mem:  make([]lang.Val, numLocs),
		Bufs: make([][]BufEntry, numThreads),
	}
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	c := &State{
		Mem:  make([]lang.Val, len(s.Mem)),
		Bufs: make([][]BufEntry, len(s.Bufs)),
	}
	copy(c.Mem, s.Mem)
	for i, b := range s.Bufs {
		c.Bufs[i] = append([]BufEntry(nil), b...)
	}
	return c
}

// CopyFrom overwrites s with o, reusing s's storage — the pooled-scratch
// counterpart of Clone.
func (s *State) CopyFrom(o *State) {
	s.Mem = append(s.Mem[:0], o.Mem...)
	if len(s.Bufs) != len(o.Bufs) {
		s.Bufs = make([][]BufEntry, len(o.Bufs))
	}
	for i, b := range o.Bufs {
		s.Bufs[i] = append(s.Bufs[i][:0], b...)
	}
}

// Lookup returns the value thread tid reads for x: the newest buffered
// write to x in tid's own buffer if any, else the global store.
func (s *State) Lookup(tid lang.Tid, x lang.Loc) lang.Val {
	buf := s.Bufs[tid]
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i].Loc == x {
			return buf[i].Val
		}
	}
	return s.Mem[x]
}

// CanWrite reports whether thread tid's buffer has room under the given
// capacity.
func (s *State) CanWrite(tid lang.Tid, cap int) bool {
	return len(s.Bufs[tid]) < cap
}

// Write buffers a write by tid.
func (s *State) Write(tid lang.Tid, x lang.Loc, v lang.Val) {
	s.Bufs[tid] = append(s.Bufs[tid], BufEntry{x, v})
}

// BufEmpty reports whether tid's buffer is empty (required for RMWs).
func (s *State) BufEmpty(tid lang.Tid) bool { return len(s.Bufs[tid]) == 0 }

// RMW performs an atomic read-modify-write by tid, which must have an
// empty buffer. It returns false if the current value differs from vR.
func (s *State) RMW(tid lang.Tid, x lang.Loc, vR, vW lang.Val) bool {
	if s.Mem[x] != vR {
		return false
	}
	s.Mem[x] = vW
	return true
}

// CanFlush reports whether tid has a pending buffered write.
func (s *State) CanFlush(tid lang.Tid) bool { return len(s.Bufs[tid]) > 0 }

// Flush commits tid's oldest buffered write to the global store.
func (s *State) Flush(tid lang.Tid) {
	b := s.Bufs[tid]
	s.Mem[b[0].Loc] = b[0].Val
	s.Bufs[tid] = b[:copy(b, b[1:])]
}

// Encode appends a canonical byte encoding of the state to dst: the store,
// then each buffer as its length followed by its entries.
func (s *State) Encode(dst []byte) []byte {
	for _, v := range s.Mem {
		dst = append(dst, byte(v))
	}
	for _, b := range s.Bufs {
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		for _, e := range b {
			dst = append(dst, byte(e.Loc), byte(e.Val))
		}
	}
	return dst
}

// Decode overwrites s, which must have the encoded state's numbers of
// locations and threads, from the front of an Encode buffer, reusing its
// storage, and returns the number of bytes consumed.
func (s *State) Decode(data []byte) int {
	pos := 0
	for i := range s.Mem {
		s.Mem[i] = lang.Val(data[pos])
		pos++
	}
	for t := range s.Bufs {
		n, k := binary.Uvarint(data[pos:])
		pos += k
		b := s.Bufs[t][:0]
		for ; n > 0; n-- {
			b = append(b, BufEntry{lang.Loc(data[pos]), lang.Val(data[pos+1])})
			pos += 2
		}
		s.Bufs[t] = b
	}
	return pos
}
