package prog

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/lang"
)

// Thread-symmetry machinery for the partial-order reduction layer.
//
// Two threads are interchangeable when their sequential programs are
// byte-identical under a *raw* serialization: identical instruction
// streams with identical register indices (not the canonical renumbering
// of CanonicalDigest — state permutation swaps whole register files
// positionally, so register r of one thread must mean register r of the
// other). Any permutation of the threads within such a class maps runs of
// the concurrent program to runs: the interleaving semantics, the SCM
// monitor, and the weak machines all treat thread identities symmetrically.
//
// Exploration exploits this by canonicalizing each state under the class
// permutations before interning it, collapsing orbits to single
// representatives. The serialization here is deliberately independent of
// digest.go's pinned appendThread.

// SymClasses returns the classes of size >= 2 of interchangeable threads
// (thread indices, ascending; classes ordered by first member). Thread and
// register *names* are ignored — they do not affect semantics.
func SymClasses(p *lang.Program) [][]int {
	byBlob := make(map[string]int)
	var classes [][]int
	for ti := range p.Threads {
		blob := string(rawThreadBytes(nil, &p.Threads[ti]))
		if ci, ok := byBlob[blob]; ok {
			classes[ci] = append(classes[ci], ti)
			continue
		}
		byBlob[blob] = len(classes)
		classes = append(classes, []int{ti})
	}
	out := classes[:0]
	for _, c := range classes {
		if len(c) >= 2 {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// rawThreadBytes appends a positional (raw-register) serialization of one
// thread's code to buf. Unlike digest.go's appendThread it keeps register
// indices verbatim and records the register-file size, so byte equality
// guarantees the threads' states can be swapped wholesale.
func rawThreadBytes(buf []byte, t *lang.SeqProg) []byte {
	u16 := func(v int) {
		buf = append(buf, byte(v), byte(v>>8))
	}
	u16(len(t.Insts))
	u16(t.NumRegs)
	var expr func(e *lang.Expr)
	expr = func(e *lang.Expr) {
		if e == nil {
			buf = append(buf, 'z')
			return
		}
		switch e.Kind {
		case lang.EConst:
			buf = append(buf, 'c', byte(e.Const))
		case lang.EReg:
			buf = append(buf, 'r', byte(e.Reg))
		case lang.EBin:
			buf = append(buf, 'b', byte(e.Op))
			expr(e.L)
			expr(e.R)
		case lang.ENot:
			buf = append(buf, 'n')
			expr(e.L)
		}
	}
	mem := func(m lang.MemRef) {
		buf = append(buf, 'M', byte(m.Base))
		u16(m.Size)
		if m.Size > 1 {
			expr(m.Index)
		}
	}
	for ii := range t.Insts {
		in := &t.Insts[ii]
		buf = append(buf, byte(in.Kind))
		switch in.Kind {
		case lang.IAssign:
			buf = append(buf, 'r', byte(in.Reg))
			expr(in.E)
		case lang.IGoto:
			expr(in.E)
			u16(in.Target)
		case lang.IWrite:
			mem(in.Mem)
			expr(in.E)
		case lang.IRead:
			buf = append(buf, 'r', byte(in.Reg))
			mem(in.Mem)
		case lang.IFADD, lang.IXCHG:
			buf = append(buf, 'r', byte(in.Reg))
			mem(in.Mem)
			expr(in.E)
		case lang.ICAS:
			buf = append(buf, 'r', byte(in.Reg))
			mem(in.Mem)
			expr(in.ER)
			expr(in.EW)
		case lang.IWait:
			mem(in.Mem)
			expr(in.E)
		case lang.IBCAS:
			mem(in.Mem)
			expr(in.ER)
			expr(in.EW)
		case lang.IAssert:
			expr(in.E)
		}
	}
	return buf
}

// EncodeStatePerm is EncodeState emitting the threads in permuted order:
// slot i of the encoding carries thread perm[i]'s (pc, live-masked
// registers). perm must permute thread indices within symmetry classes
// only, so every slot receives a thread with the slot's register count and
// liveness tables.
func (p *P) EncodeStatePerm(dst []byte, s State, perm []uint8) []byte {
	n := len(dst)
	dst = slices.Grow(dst, p.size)[:n+p.size]
	for i := range s.Threads {
		p.Threads[perm[i]].encode(dst[n+p.Threads[i].off:], s.Threads[perm[i]])
	}
	return dst
}

// CmpThreads totally orders threads a and b of state s by their encoded
// program-state blocks: pc first, then the live-masked register file. The
// two threads must belong to one symmetry class (same register count and
// liveness tables). A zero result means the blocks encode identically, so
// swapping the threads changes no program-state byte.
func (p *P) CmpThreads(s State, a, b int) int {
	ta, tb := &s.Threads[a], &s.Threads[b]
	if ta.PC != tb.PC {
		if ta.PC < tb.PC {
			return -1
		}
		return 1
	}
	live := p.Threads[a].live[ta.PC]
	for r := range ta.Regs {
		va, vb := ta.Regs[r], tb.Regs[r]
		if live&(1<<r) == 0 {
			continue
		}
		if va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
	}
	return 0
}

// CmpThreadsRaw is CmpThreads over the raw register files of
// EncodeStateRaw: a zero result means the two threads' raw blocks are
// identical.
func (p *P) CmpThreadsRaw(s State, a, b int) int {
	ta, tb := &s.Threads[a], &s.Threads[b]
	if c := cmp.Compare(ta.PC, tb.PC); c != 0 {
		return c
	}
	return slices.Compare(ta.Regs, tb.Regs)
}

// EncodeStateRawPerm is EncodeStateRaw emitting the threads in permuted
// order: slot i of the encoding carries thread perm[i]'s raw block. perm
// must permute thread indices within symmetry classes only.
func (p *P) EncodeStateRawPerm(dst []byte, s State, perm []uint8) []byte {
	for i := range s.Threads {
		ts := &s.Threads[perm[i]]
		dst = append(dst, byte(ts.PC), byte(ts.PC>>8))
		for _, v := range ts.Regs {
			dst = append(dst, byte(v))
		}
	}
	return dst
}

// Symmetry bundles a program's symmetry classes with the byte-block
// layout of its raw state encoding, for canonicalizing raw keys without
// decoding them (the state-robustness checkers' projection sets).
type Symmetry struct {
	Classes [][]int
	offs    []int // byte offset of each thread's block in EncodeStateRaw
	bl      []int // block length per thread (2 + NumRegs)
	scratch []byte
}

// NewSymmetry returns the symmetry of p's program, or nil when no two
// threads are interchangeable.
func NewSymmetry(p *P) *Symmetry {
	classes := SymClasses(p.Prog)
	if classes == nil {
		return nil
	}
	sy := &Symmetry{Classes: classes}
	off := 0
	for i := range p.Threads {
		sy.offs = append(sy.offs, off)
		bl := 2 + p.Threads[i].seq.NumRegs
		sy.bl = append(sy.bl, bl)
		off += bl
	}
	sy.scratch = make([]byte, off)
	return sy
}

// CanonRaw canonicalizes a raw state encoding (EncodeStateRaw layout) in
// place: within each symmetry class, the member byte blocks are sorted
// lexicographically. Two raw states related by a class permutation
// canonicalize to the same bytes. Returns buf.
func (sy *Symmetry) CanonRaw(buf []byte) []byte {
	for _, cls := range sy.Classes {
		bl := sy.bl[cls[0]]
		// Insertion sort of the class's blocks (classes are tiny).
		for i := 1; i < len(cls); i++ {
			for j := i; j > 0; j-- {
				a := buf[sy.offs[cls[j-1]] : sy.offs[cls[j-1]]+bl]
				b := buf[sy.offs[cls[j]] : sy.offs[cls[j]]+bl]
				if bytes.Compare(a, b) <= 0 {
					break
				}
				copy(sy.scratch[:bl], a)
				copy(a, b)
				copy(b, sy.scratch[:bl])
			}
		}
	}
	return buf
}
