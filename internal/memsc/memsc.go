// Package memsc implements the sequentially consistent memory subsystem SC
// of §2.3: a map from locations to their most recently written values.
package memsc

import "repro/internal/lang"

// Memory is a state of the SC memory subsystem: M : Loc → Val. The initial
// state maps every location to 0.
type Memory []lang.Val

// New returns the initial SC memory for numLocs locations.
func New(numLocs int) Memory { return make(Memory, numLocs) }

// Clone returns a deep copy.
func (m Memory) Clone() Memory {
	c := make(Memory, len(m))
	copy(c, m)
	return c
}

// Step attempts the transition labelled l, per the rules of §2.3. It
// returns false (leaving the memory unchanged) when l is not enabled:
// a read or RMW whose read value is not the current value of the location.
// SC is oblivious to the acting thread.
func (m Memory) Step(l lang.Label) bool {
	switch l.Typ {
	case lang.LWrite:
		m[l.Loc] = l.VW
		return true
	case lang.LRead:
		return m[l.Loc] == l.VR
	case lang.LRMW:
		if m[l.Loc] != l.VR {
			return false
		}
		m[l.Loc] = l.VW
		return true
	}
	return false
}

// Enabled reports whether l is enabled without taking the step.
func (m Memory) Enabled(l lang.Label) bool {
	if l.Typ == lang.LWrite {
		return true
	}
	return m[l.Loc] == l.VR
}

// Encode appends the canonical byte encoding of the memory to dst.
func (m Memory) Encode(dst []byte) []byte {
	for _, v := range m {
		dst = append(dst, byte(v))
	}
	return dst
}

// Decode overwrites m from the front of an Encode buffer and returns the
// number of bytes consumed.
func (m Memory) Decode(data []byte) int {
	for i := range m {
		m[i] = lang.Val(data[i])
	}
	return len(m)
}
