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
	// Level[id] == l. Because the level strictly increases along every
	// fanin edge, all nodes in one bucket are mutually independent —
	// the persistent SSTA engine's parallel dirty-cone update runs one
	// bucket at a time behind a level barrier, and the adjoint sweeps
	// accumulate in (level descending, bucket order). Levels[0] holds
	// exactly the primary inputs.
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
// ErrCycle if the fanin relation is cyclic.
func (c *Circuit) TopoOrder() ([]NodeID, error) {
	n := len(c.Nodes)
	indeg := make([]int, n)
	fanout := make([][]NodeID, n)
	for i, nd := range c.Nodes {
		indeg[i] = len(nd.Fanin)
		for _, f := range nd.Fanin {
			fanout[f] = append(fanout[f], NodeID(i))
		}
	}
	queue := make([]NodeID, 0, n)
	for i := range c.Nodes {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range fanout[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: %d of %d nodes unreachable from sources",
			ErrCycle, n-len(order), n)
	}
	return order, nil
}

// Compile builds the traversal view. It fails on cyclic circuits.
func Compile(c *Circuit) (*Graph, error) {
	topo, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(c.Nodes)
	g := &Graph{
		C:      c,
		Topo:   topo,
		Fanout: make([][]NodeID, n),
		Level:  make([]int, n),
	}
	for i, nd := range c.Nodes {
		g.Edges += len(nd.Fanin)
		for _, f := range nd.Fanin {
			g.Fanout[f] = append(g.Fanout[f], NodeID(i))
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
	g.Levels = make([][]NodeID, maxLvl+1)
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
