package ssta

import (
	"math"

	"repro/internal/delay"
	"repro/internal/stats"
)

// schedule is the persistent engine's compiled sweep program. Node ids
// follow declaration order, so a level-by-level walk indexed by NodeID
// jumps through memory at almost every step and misses cache on each
// node's netlist.Node, its fanout header, its pin-offset header and
// every per-node model and state slab. The schedule renames the nodes
// to positions instead: position p is the p-th node of the canonical
// serial order (g.Levels concatenated, bucket order kept), and every
// per-node input a pass reads sits in a dense position-indexed slab —
// the fanin pins and their additive delays, the fanout pins and their
// input capacitances, the tape offset, plus the engine's own copies of
// the model's TInt, CLoad and input arrivals. Pins are stored as
// positions, so a pass never translates back to a NodeID; only the
// API boundary does, through pos and order. Every slab is sized once from the node and
// edge counts; all indices are int32.
//
// The forward pass walks positions ascending — levels ascending,
// exactly the flat sweep's order. The adjoint walks levels
// descending but positions inside a level ascending: that is the flat
// adjoint's accumulation order, and reversing the in-level walk would
// reorder additions into shared fanin adjoints and change their last
// bits. Fanin pins keep pin order and fanout pins Graph.Fanout order,
// so every fold and every load or gradient fan-out adds its terms in
// the flat sweeps' order.
type schedule struct {
	// order lists the NodeIDs by position; lvl[l]
	// is the first position of level l (len(g.Levels)+1 entries, so
	// level l spans [lvl[l], lvl[l+1])). Level 0 holds exactly the
	// primary inputs, so positions [0, nIn) are the inputs and every
	// later position is a gate.
	order []int32
	lvl   []int32
	nIn   int
	// pos maps a NodeID to its position: order[pos[id]] == id.
	pos []int32
	// Position p's fanin pins, in pin order, are
	// fin[finOff[p]:finOff[p+1]]; its fanout pins, in Graph.Fanout
	// order, fout[foutOff[p]:foutOff[p+1]]. Both offset tables have
	// len(order)+1 entries and both pin slabs hold positions.
	finOff, foutOff []int32
	fin, fout       []int32
	// poff[i] is the additive delay of fanin pin fin[i] (eq 1's t_i;
	// 0 on cells with uniform pins, which shifts nothing).
	poff []float64
	// pinCIn[i] is the C_in of fanout pin fout[i] — the model's CIn
	// copied per pin, so the load and gradient fan-outs read it
	// sequentially next to the pin instead of at the pin's position.
	pinCIn []float64
	// outs lists the primary outputs' positions in output order.
	outs []int32
	// tape[p] is the arena offset of position p's len(fanin)-1 fold
	// steps; tapeLen is the arena length.
	tape    []int32
	tapeLen int
	// The model's per-node parameters by position: tint and cload
	// for every node, inArr for the inputs (positions [0, nIn)).
	tint, cload []float64
	inArr       []stats.MV
	// lanes is the full forward pass's lane program: every gate
	// position once, level by level, with gates of one level paired
	// so their Clark folds run through one two-lane kernel (see
	// compileLanes). An entry p >= 0 is a gate folded alone; a
	// negative entry ^p is the first gate of a pair whose second gate
	// is the next entry. Inside a level the entries follow the pairing
	// scan, not position order: every gate of a level reads only
	// lower levels, so the forward order inside a level moves no bit.
	lanes []int32
}

// compileSchedule builds the schedule for m's graph, with the tape
// carved in position order: each node's fold steps follow its
// predecessor's, so a level's tape is one contiguous arena span.
func compileSchedule(m *delay.Model) schedule {
	g := m.G
	n := len(g.C.Nodes)
	if g.Edges > math.MaxInt32 || n > math.MaxInt32 {
		panic("ssta: graph too large for the engine's int32 sweep schedule")
	}
	sc := schedule{
		order:   make([]int32, 0, n),
		lvl:     make([]int32, len(g.Levels)+1),
		pos:     make([]int32, n),
		finOff:  make([]int32, n+1),
		foutOff: make([]int32, n+1),
		fin:     make([]int32, 0, g.Edges),
		poff:    make([]float64, 0, g.Edges),
		fout:    make([]int32, 0, g.Edges),
		pinCIn:  make([]float64, 0, g.Edges),
		outs:    make([]int32, len(g.C.Outputs)),
		tape:    make([]int32, n),
		tint:    make([]float64, n),
		cload:   make([]float64, n),
	}
	for _, bucket := range g.Levels {
		for _, id := range bucket {
			sc.pos[id] = int32(len(sc.order))
			sc.order = append(sc.order, int32(id))
		}
	}
	if len(g.Levels) > 0 {
		sc.nIn = len(g.Levels[0])
	}
	sc.inArr = make([]stats.MV, sc.nIn)
	at, p := int32(0), 0
	for l, bucket := range g.Levels {
		sc.lvl[l] = int32(p)
		for _, id := range bucket {
			fanin := g.C.Nodes[id].Fanin
			for k, f := range fanin {
				sc.fin = append(sc.fin, sc.pos[f])
				sc.poff = append(sc.poff, m.PinOff(id, k))
			}
			for _, f := range g.Fanout[id] {
				sc.fout = append(sc.fout, sc.pos[f])
				sc.pinCIn = append(sc.pinCIn, m.CIn[f])
			}
			sc.finOff[p+1] = int32(len(sc.fin))
			sc.foutOff[p+1] = int32(len(sc.fout))
			sc.tape[p] = at
			if k := len(fanin); k > 1 {
				at += int32(k - 1)
			}
			sc.tint[p], sc.cload[p] = m.TInt[id], m.CLoad[id]
			if p < sc.nIn {
				sc.inArr[p] = m.Arrival[id]
			}
			p++
		}
	}
	sc.lvl[len(g.Levels)] = int32(n)
	sc.tapeLen = int(at)
	for i, o := range g.C.Outputs {
		sc.outs[i] = sc.pos[o]
	}
	sc.compileLanes()
	return sc
}

// compileLanes builds the lane program. Within each level it pairs
// every gate of fan-in k >= 2 with the next unpaired gate of the same
// level and the same fan-in, so the pair's folds run in lockstep from
// the first Clark max to the last. What that leaves of a level — at
// most one gate per fan-in — is paired in descending fan-in, so the
// folds share their first maxes and the longer one finishes alone; an
// odd gate out, and every gate with one fanin (no max to overlap),
// runs alone. On k2-like the pairs run 1,970 of the 1,998 maxes in
// lockstep.
func (sc *schedule) compileLanes() {
	sc.lanes = make([]int32, 0, len(sc.order)-sc.nIn)
	// open[k] is the level's waiting gate of fan-in k, or -1.
	var open, rest []int32
	fanin := func(p int32) int { return int(sc.finOff[p+1] - sc.finOff[p]) }
	for l := 1; l+1 < len(sc.lvl); l++ {
		for p := sc.lvl[l]; p < sc.lvl[l+1]; p++ {
			k := fanin(p)
			if k < 2 {
				sc.lanes = append(sc.lanes, p)
				continue
			}
			for len(open) <= k {
				open = append(open, -1)
			}
			if q := open[k]; q >= 0 {
				sc.lanes = append(sc.lanes, ^q, p)
				open[k] = -1
			} else {
				open[k] = p
			}
		}
		// The leftovers in descending fan-in.
		rest = rest[:0]
		for k := len(open) - 1; k >= 2; k-- {
			if q := open[k]; q >= 0 {
				rest = append(rest, q)
				open[k] = -1
			}
		}
		for i := 0; i+1 < len(rest); i += 2 {
			sc.lanes = append(sc.lanes, ^rest[i], rest[i+1])
		}
		if len(rest)%2 == 1 {
			sc.lanes = append(sc.lanes, rest[len(rest)-1])
		}
	}
}

// fanin returns position p's fanin pins in pin order.
func (sc *schedule) fanin(p int) []int32 { return sc.fin[sc.finOff[p]:sc.finOff[p+1]] }

// fanout returns the span [a, b) of position p's fanout pins, in
// Graph.Fanout order, in the pin-aligned slabs fout and pinCIn.
func (sc *schedule) fanout(p int) (a, b int32) { return sc.foutOff[p], sc.foutOff[p+1] }

// memoryBytes is the schedule's resident footprint.
func (sc *schedule) memoryBytes() int64 {
	const mvSize = 16 // stats.MV: 2 float64
	b := int64(cap(sc.order)+len(sc.lvl)+len(sc.pos)+len(sc.finOff)+len(sc.foutOff)+len(sc.tape)) * 4
	b += int64(cap(sc.fin)+cap(sc.fout)+len(sc.outs)+cap(sc.lanes)) * 4
	b += int64(cap(sc.poff)+cap(sc.pinCIn)+len(sc.tint)+len(sc.cload)) * 8
	b += int64(len(sc.inArr)) * mvSize
	return b
}
