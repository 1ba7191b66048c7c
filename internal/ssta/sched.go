package ssta

import (
	"math"

	"repro/internal/netlist"
)

// schedule is the persistent engine's compiled sweep order. Node ids
// follow declaration order, so a level-by-level walk over the graph
// jumps in NodeID at almost every step and misses cache on each
// node's netlist.Node, its fanout header and its tape header. The
// schedule lays the per-node sweep inputs out in the order the sweeps
// visit them: position p is the p-th node of the canonical serial
// order (g.Levels concatenated, bucket order kept), and its fanin
// pins, fanout pins and tape offset sit in dense position-indexed
// slabs. Every slab is sized once from the node and edge counts; all
// offsets are int32.
//
// The forward pass walks positions ascending — levels ascending,
// exactly the flat sweep's order. The adjoint walks levels
// descending but positions inside a level ascending: that is the flat
// adjoint's accumulation order, and reversing the in-level walk would
// reorder additions into shared fanin adjoints and change their last
// bits.
type schedule struct {
	// order lists the nodes by position (read through node); lvl[l]
	// is the first position of level l (len(g.Levels)+1 entries, so
	// level l spans [lvl[l], lvl[l+1])). Level 0 holds exactly the
	// primary inputs.
	order []int32
	lvl   []int32
	// pos maps a NodeID to its position: order[pos[id]] == id.
	pos []int32
	// Position p's fanin pins, in pin order, are
	// fin[finOff[p]:finOff[p+1]]; its fanout pins, in Graph.Fanout
	// order, fout[foutOff[p]:foutOff[p+1]]. Both offset tables have
	// len(order)+1 entries.
	finOff, foutOff []int32
	fin, fout       []netlist.NodeID
	// tape[p] is the arena offset of position p's len(fanin)-1 fold
	// steps; tapeLen is the arena length.
	tape    []int32
	tapeLen int
}

// compileSchedule builds the schedule for g, with the tape carved in
// position order: each node's fold steps follow its predecessor's, so
// a level's tape is one contiguous arena span.
func compileSchedule(g *netlist.Graph) schedule {
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
		fin:     make([]netlist.NodeID, 0, g.Edges),
		fout:    make([]netlist.NodeID, 0, g.Edges),
		tape:    make([]int32, n),
	}
	at := int32(0)
	for l, bucket := range g.Levels {
		sc.lvl[l] = int32(len(sc.order))
		for _, id := range bucket {
			p := len(sc.order)
			sc.pos[id] = int32(p)
			sc.order = append(sc.order, int32(id))
			fanin := g.C.Nodes[id].Fanin
			sc.fin = append(sc.fin, fanin...)
			sc.fout = append(sc.fout, g.Fanout[id]...)
			sc.finOff[p+1] = int32(len(sc.fin))
			sc.foutOff[p+1] = int32(len(sc.fout))
			sc.tape[p] = at
			if k := len(fanin); k > 1 {
				at += int32(k - 1)
			}
		}
	}
	sc.lvl[len(g.Levels)] = int32(n)
	sc.tapeLen = int(at)
	return sc
}

// node returns the NodeID at position p.
func (sc *schedule) node(p int) netlist.NodeID { return netlist.NodeID(sc.order[p]) }

// fanin returns position p's fanin pins in pin order.
func (sc *schedule) fanin(p int) []netlist.NodeID { return sc.fin[sc.finOff[p]:sc.finOff[p+1]] }

// fanout returns position p's fanout pins in Graph.Fanout order.
func (sc *schedule) fanout(p int) []netlist.NodeID { return sc.fout[sc.foutOff[p]:sc.foutOff[p+1]] }

// memoryBytes is the schedule's resident footprint.
func (sc *schedule) memoryBytes() int64 {
	const idSize = 8 // netlist.NodeID
	b := int64(cap(sc.fin)+cap(sc.fout)) * idSize
	b += int64(cap(sc.order)+len(sc.lvl)+len(sc.pos)+len(sc.finOff)+len(sc.foutOff)+len(sc.tape)) * 4
	return b
}
