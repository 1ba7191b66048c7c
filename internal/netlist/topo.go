package netlist

import (
	"errors"
	"fmt"
)

// Graph is the compiled traversal view of a Circuit: topological
// order, fanout lists and levels. It shares the Circuit's node ids.
type Graph struct {
	C *Circuit

	// Topo lists all node ids in a topological order (every node
	// appears after all of its fanins). Inputs come first within the
	// order Kahn's algorithm discovers them.
	Topo []NodeID

	// Fanout[id] lists the gates driven by node id. A gate driving a
	// fanout gate through k of its input pins appears k times, because
	// each pin contributes its own input-capacitance load in the
	// sizable delay model.
	Fanout [][]NodeID

	// Level[id] is the length in gates of the longest path from any
	// primary input to the node (inputs are level 0).
	Level []int

	// Levels buckets the node ids by Level, preserving topological
	// order inside each bucket: Levels[l] lists every node with
	// Level[id] == l, and Levels[0] holds exactly the primary inputs.
	// Because the level strictly increases along every fanin edge, the
	// nodes of one bucket are mutually independent. Levels fixes the
	// order every sweep visits nodes in: the flat forward sweep and the
	// persistent SSTA engine's schedule walk the buckets in order, and
	// the adjoint sweeps accumulate in (level descending, bucket
	// order). That order, with Fanout's, sets the summation order of
	// every float the sweeps fold, which is why Compile must keep
	// Kahn's FIFO order for Topo and the buckets.
	//
	// Levels — like every derived table on the Graph — is computed
	// exactly once, in Compile. Sweep engines must index these
	// memoized tables rather than re-derive level buckets per sweep:
	// on large graphs that bookkeeping is O(V+E) per call and
	// dominates repeated evaluations.
	Levels [][]NodeID

	// Edges is the total fanin pin count (== total fanout entries).
	Edges int
}

// ErrCycle is returned when the fanin relation is cyclic.
var ErrCycle = errors.New("netlist: circuit contains a cycle")

// TopoOrder returns a topological order of the circuit's nodes, or
// ErrCycle if the fanin relation is cyclic. It is the order Compile
// stores in Graph.Topo.
func (c *Circuit) TopoOrder() ([]NodeID, error) {
	off, adj := fanoutCSR(c)
	return kahnOrder(c, off, adj, make([]int, len(c.Nodes)))
}

// fanoutCSR returns the circuit's fanout lists in compressed sparse
// row form, in two allocations: the gates node id drives are
// adj[off[id]:off[id+1]], in ascending id, once per input pin.
func fanoutCSR(c *Circuit) (off []int, adj []NodeID) {
	n := len(c.Nodes)
	off = make([]int, n+1)
	for _, nd := range c.Nodes {
		for _, f := range nd.Fanin {
			off[f+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// Fill with off[f] as node f's write cursor; each cursor ends at
	// the next node's start, so shifting off up by one restores it.
	adj = make([]NodeID, off[n])
	for i, nd := range c.Nodes {
		for _, f := range nd.Fanin {
			adj[off[f]] = NodeID(i)
			off[f]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, adj
}

// kahnOrder runs Kahn's algorithm with a FIFO queue over the fanout
// lists (off, adj) of fanoutCSR: the sources in id order, then each
// gate once its last fanin has been dequeued. The queue is the order
// itself, since nodes leave it in the order they enter. indeg is
// len(c.Nodes) of scratch; on success it is all zero again.
func kahnOrder(c *Circuit, off []int, adj []NodeID, indeg []int) ([]NodeID, error) {
	n := len(c.Nodes)
	order := make([]NodeID, 0, n)
	for i, nd := range c.Nodes {
		indeg[i] = len(nd.Fanin)
		if indeg[i] == 0 {
			order = append(order, NodeID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head]
		for _, s := range adj[off[id]:off[id+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: %d of %d nodes unreachable from sources",
			ErrCycle, n-len(order), n)
	}
	return order, nil
}

// Compile builds the traversal view. It fails on cyclic circuits. It
// allocates a fixed number of arrays whatever the circuit's size: the
// fanout lists and the level buckets are each carved from one backing
// array, every list capacity-limited so an append to one cannot write
// into the next.
func Compile(c *Circuit) (*Graph, error) {
	n := len(c.Nodes)
	off, adj := fanoutCSR(c)
	// Level doubles as Kahn's in-degree scratch, which it leaves zero.
	level := make([]int, n)
	topo, err := kahnOrder(c, off, adj, level)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		C:      c,
		Topo:   topo,
		Fanout: make([][]NodeID, n),
		Level:  level,
		Edges:  len(adj),
	}
	for id := range g.Fanout {
		if lo, hi := off[id], off[id+1]; lo < hi {
			g.Fanout[id] = adj[lo:hi:hi]
		}
	}
	maxLvl := 0
	for _, id := range topo {
		lvl := 0
		for _, f := range c.Nodes[id].Fanin {
			if l := g.Level[f] + 1; l > lvl {
				lvl = l
			}
		}
		if c.Nodes[id].Kind == KindInput {
			lvl = 0
		}
		g.Level[id] = lvl
		if lvl > maxLvl {
			maxLvl = lvl
		}
	}
	// Bucket topo by level: size each bucket, then append in topo
	// order, each append landing inside its bucket's capacity.
	width := make([]int, maxLvl+1)
	for _, l := range g.Level {
		width[l]++
	}
	g.Levels = make([][]NodeID, maxLvl+1)
	buckets := make([]NodeID, n)
	at := 0
	for l, w := range width {
		g.Levels[l] = buckets[at : at : at+w]
		at += w
	}
	for _, id := range topo {
		g.Levels[g.Level[id]] = append(g.Levels[g.Level[id]], id)
	}
	return g, nil
}

// MustCompile is Compile for circuits known to be valid; it panics on
// error and is intended for built-ins and tests.
func MustCompile(c *Circuit) *Graph {
	g, err := Compile(c)
	if err != nil {
		panic(err)
	}
	return g
}

// IsOutput reports whether id is marked as a primary output.
func (g *Graph) IsOutput(id NodeID) bool { return g.C.isOutput(id) }

// DanglingGates returns gates with no fanout that are not primary
// outputs. Such gates are legal but usually indicate a malformed
// netlist; generators must not produce any.
func (g *Graph) DanglingGates() []NodeID {
	var out []NodeID
	for i, nd := range g.C.Nodes {
		if nd.Kind != KindGate {
			continue
		}
		id := NodeID(i)
		if len(g.Fanout[id]) == 0 && !g.IsOutput(id) {
			out = append(out, id)
		}
	}
	return out
}
