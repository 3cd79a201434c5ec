package emit

import "fmt"

// dispatch emits the fixed op machinery and the per-thread dispatch
// tables.
func (g *gen) dispatch() {
	g.raw(`// Pending memory operations (cf. internal/prog.MemOp).
const (
	opNone = iota
	opWrite
	opRead
	opFADD
	opCAS
	opWait
	opBCAS
	opXCHG
)

type op struct {
	kind uint8
	loc  uint8
	a, b uint8 // write val / FADD add / CAS,BCAS exp,new / wait val / XCHG new
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func imod(a, b int) int {
	if b == 0 {
		return 0
	}
	return a % b
}`)
	g.w("")
	var eps, ops, apps []string
	for t := range g.p.Threads {
		eps = append(eps, fmt.Sprintf("eps%d", t))
		ops = append(ops, fmt.Sprintf("op%d", t))
		apps = append(apps, fmt.Sprintf("app%d", t))
	}
	g.w("var epsFns = [nT]func(*state) bool{%s}", join(eps))
	g.w("var opFns = [nT]func(*state) op{%s}", join(ops))
	g.w("var appFns = [nT]func(*state, uint8){%s}", join(apps))
	g.w("")
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

// checks emits the Theorem 5.3 robustness conditions (with the §5.1
// abstract-value refinements) and the Definition 6.1 racy-state check.
func (g *gen) checks() {
	g.raw(`// checkOp evaluates the Theorem 5.3 conditions for thread tau whose
// pending operation is o; reports a violation description or "".
func checkOp(s *state, tau int, o op) string {
	if o.kind == opNone || naLoc[o.loc] {
		return ""
	}
	x := int(o.loc)
	if s.b[oVSC+tau]&(1<<x) == 0 {
		return ""
	}
	v := s.b[oV+tau*nL+x]
	vr := s.b[oVR+tau*nL+x]
	cv := s.b[oCV+tau]&(1<<x) != 0
	cvr := s.b[oCVR+tau]&(1<<x) != 0
	switch o.kind {
	case opWrite, opFADD, opXCHG:
		if vr != 0 || cvr {
			return "stale write/RMW placement at " + locName[x]
		}
	case opRead:
		if v != 0 || cv {
			return "stale read at " + locName[x]
		}
	case opWait:
		wb := uint64(1) << o.a
		if v&wb != 0 || (crit[x]&wb == 0 && cv) {
			return "stale read at " + locName[x]
		}
	case opCAS:
		eb := uint64(1) << o.a
		if vr&eb != 0 || (crit[x]&eb == 0 && cvr) {
			return "stale RMW at " + locName[x]
		}
		if v&^eb != 0 || cv {
			return "stale read at " + locName[x]
		}
	case opBCAS:
		eb := uint64(1) << o.a
		if vr&eb != 0 || (crit[x]&eb == 0 && cvr) {
			return "stale RMW at " + locName[x]
		}
	}
	return ""
}

// checkRace evaluates the Definition 6.1 racy-state condition.
func checkRace(ops *[nT]op) string {
	for i := 0; i < nT; i++ {
		if ops[i].kind == opNone || !naLoc[ops[i].loc] {
			continue
		}
		for j := i + 1; j < nT; j++ {
			if ops[j].kind == opNone || !naLoc[ops[j].loc] || ops[i].loc != ops[j].loc {
				continue
			}
			if ops[i].kind == opWrite || ops[j].kind == opWrite {
				return "data race on " + locName[ops[i].loc]
			}
		}
	}
	return ""
}`)
	g.w("")
}

// mainFunc emits the BFS driver with counterexample reconstruction.
func (g *gen) mainFunc() {
	g.w("// stepRec records one transition for trace reconstruction.")
	g.raw(`type stepRec struct {
	tid      uint8
	kind     uint8 // 0 write, 1 read, 2 rmw
	loc      uint8
	vr, vw   uint8
}

func main() {
	s0 := initState()
	for t := 0; t < nT; t++ {
		if !epsFns[t](&s0) {
			fmt.Println("NOT-ROBUST: assertion failed during initialization")
			os.Exit(1)
		}
	}
	visited := map[state]int32{canon(s0): 0}
	parents := []int32{-1}
	steps := []stepRec{{}}
	queue := []state{s0}
	report := func(id int32, why string) {
		fmt.Printf("NOT-ROBUST: %s (%d states)\n", why, len(visited))
		var rev []stepRec
		for id >= 0 && parents[id] >= 0 {
			rev = append(rev, steps[id])
			id = parents[id]
		}
		for i := len(rev) - 1; i >= 0; i-- {
			r := rev[i]
			switch r.kind {
			case 0:
				fmt.Printf("  %s: W(%s,%d)\n", thrName[r.tid], locName[r.loc], r.vw)
			case 1:
				fmt.Printf("  %s: R(%s,%d)\n", thrName[r.tid], locName[r.loc], r.vr)
			default:
				fmt.Printf("  %s: RMW(%s,%d,%d)\n", thrName[r.tid], locName[r.loc], r.vr, r.vw)
			}
		}
		os.Exit(1)
	}
	// A finding ends the search once its BFS level is expanded in full, as
	// in the engine: a violation outranks an assertion failure, and
	// otherwise the level's first finding is reported.
	found, foundID, foundAssert := "", int32(0), false
	note := func(id int32, why string, assert bool) {
		if found == "" || foundAssert && !assert {
			found, foundID, foundAssert = why, id, assert
		}
	}
	levelEnd := len(queue)
	for head := 0; head < len(queue); head++ {
		if head == levelEnd {
			if found != "" {
				report(foundID, found)
			}
			levelEnd = len(queue)
		}
		cur := queue[head]
		curID := visited[canon(cur)]
		var ops [nT]op
		for t := 0; t < nT; t++ {
			ops[t] = opFns[t](&cur)
		}
		why := ""
		for t := 0; t < nT && why == ""; t++ {
			if w := checkOp(&cur, t, ops[t]); w != "" {
				why = fmt.Sprintf("thread %s: %s", thrName[t], w)
			}
		}
		if why == "" {
			why = checkRace(&ops)
		}
		if why != "" {
			note(curID, why, false)
		}
		for t := 0; t < nT; t++ {
			o := ops[t]
			if o.kind == opNone {
				continue
			}
			next := cur
			m := next.m[o.loc]
			var rec stepRec
			rec.tid = uint8(t)
			rec.loc = o.loc
			switch o.kind {
			case opWrite:
				if naLoc[o.loc] {
					next.m[o.loc] = o.a // §6: NA accesses bypass the monitor
				} else {
					stepWrite(&next, t, int(o.loc), o.a)
				}
				appFns[t](&next, 0)
				rec.kind, rec.vw = 0, o.a
			case opRead:
				if !naLoc[o.loc] {
					stepRead(&next, t, int(o.loc))
				}
				appFns[t](&next, m)
				rec.kind, rec.vr = 1, m
			case opFADD:
				vw := uint8((int(m) + int(o.a)) % nV)
				stepRMW(&next, t, int(o.loc), vw)
				appFns[t](&next, m)
				rec.kind, rec.vr, rec.vw = 2, m, vw
			case opXCHG:
				stepRMW(&next, t, int(o.loc), o.a)
				appFns[t](&next, m)
				rec.kind, rec.vr, rec.vw = 2, m, o.a
			case opCAS:
				if m == o.a {
					stepRMW(&next, t, int(o.loc), o.b)
					rec.kind, rec.vr, rec.vw = 2, m, o.b
				} else {
					stepRead(&next, t, int(o.loc))
					rec.kind, rec.vr = 1, m
				}
				appFns[t](&next, m)
			case opWait:
				if m != o.a {
					continue
				}
				stepRead(&next, t, int(o.loc))
				appFns[t](&next, m)
				rec.kind, rec.vr = 1, m
			case opBCAS:
				if m != o.a {
					continue
				}
				stepRMW(&next, t, int(o.loc), o.b)
				appFns[t](&next, m)
				rec.kind, rec.vr, rec.vw = 2, m, o.b
			}
			if !epsFns[t](&next) {
				steps = append(steps, rec)
				parents = append(parents, curID)
				note(int32(len(parents)-1), fmt.Sprintf("assertion failed in %s", thrName[t]), true)
				continue
			}
			key := canon(next)
			if _, ok := visited[key]; !ok {
				visited[key] = int32(len(parents))
				parents = append(parents, curID)
				steps = append(steps, rec)
				queue = append(queue, next)
			}
		}
	}
	if found != "" {
		report(foundID, found)
	}
	fmt.Printf("ROBUST (%d states)\n", len(visited))
}`)
}
