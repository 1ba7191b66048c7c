// Package netlist provides the combinational-circuit intermediate
// representation used throughout the module: named nodes (primary
// inputs and gates) forming a DAG, with topological utilities, a small
// text netlist format, a mapped-BLIF subset reader, the paper's two
// built-in example circuits and a deterministic synthetic benchmark
// generator standing in for the MCNC circuits of Table 1.
package netlist

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID indexes a node within a Circuit. IDs are dense and stable:
// the node order is the insertion order.
type NodeID int

// NodeKind distinguishes primary inputs from gates.
type NodeKind uint8

// Node kinds.
const (
	KindInput NodeKind = iota
	KindGate
)

func (k NodeKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindGate:
		return "gate"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Node is a primary input or a gate instance.
type Node struct {
	Name  string
	Kind  NodeKind
	Type  string   // library cell type for gates; empty for inputs
	Fanin []NodeID // driver nodes; empty for inputs
}

// Circuit is a named combinational network. Construct with New and
// the Add* methods; most consumers then compile it once into a Graph
// (see topo.go) for traversal.
type Circuit struct {
	Name  string
	Nodes []Node
	// Outputs lists the primary outputs in marking order. Add to it
	// only through MarkOutput, which also keeps the output index.
	Outputs []NodeID

	byName map[string]NodeID
	// isOut[id] reports whether id is in Outputs; MarkOutput is its
	// only writer, so output lookups are O(1). It may be shorter than
	// Nodes: nodes past its end are not outputs.
	isOut []bool

	// arena is the unused tail of the chunk the gates' fanin lists are
	// carved from (see faninSlots), so adding a gate allocates only
	// once per chunk.
	arena []NodeID
}

// A fanin arena chunk holds as many ids as the circuit has nodes,
// clamped to [minArenaChunk, maxArenaChunk]: tiny circuits stay tiny
// and large ones allocate once per maxArenaChunk pins.
const (
	minArenaChunk = 64
	maxArenaChunk = 8192
)

// faninSlots returns a fresh length-n fanin list carved from the
// circuit's arena. Its capacity is n, so an append to one gate's list
// reallocates instead of writing into its neighbour's.
func (c *Circuit) faninSlots(n int) []NodeID {
	if n > len(c.arena) {
		size := min(max(len(c.Nodes), minArenaChunk), maxArenaChunk)
		c.arena = make([]NodeID, max(size, n))
	}
	s := c.arena[:n:n]
	c.arena = c.arena[n:]
	return s
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]NodeID)}
}

// ErrDuplicateName is returned when a node name is reused.
var ErrDuplicateName = errors.New("netlist: duplicate node name")

// ErrUnknownNode is returned when a referenced node does not exist.
var ErrUnknownNode = errors.New("netlist: unknown node")

// AddInput adds a primary input and returns its id.
func (c *Circuit) AddInput(name string) (NodeID, error) {
	return c.add(Node{Name: name, Kind: KindInput})
}

// AddGate adds a gate of the given library type driven by the named
// fanin nodes, which must already exist.
func (c *Circuit) AddGate(name, typ string, fanin ...string) (NodeID, error) {
	ids := c.faninSlots(len(fanin))
	for i, f := range fanin {
		id, ok := c.byName[f]
		if !ok {
			return -1, unknownFanin(f, name)
		}
		ids[i] = id
	}
	return c.add(Node{Name: name, Kind: KindGate, Type: typ, Fanin: ids})
}

func unknownFanin(fanin, gate string) error {
	return fmt.Errorf("%w: %q (fanin of %q)", ErrUnknownNode, fanin, gate)
}

func (c *Circuit) add(n Node) (NodeID, error) {
	if _, dup := c.byName[n.Name]; dup {
		return -1, fmt.Errorf("%w: %q", ErrDuplicateName, n.Name)
	}
	id := NodeID(len(c.Nodes))
	c.Nodes = append(c.Nodes, n)
	c.byName[n.Name] = id
	return id, nil
}

// MarkOutput marks the named node as a primary output. Marking the
// same node twice is an error, as is marking a primary input (the
// paper's circuits never route an input straight to an output, and
// allowing it would put a zero-delay node in the output max).
func (c *Circuit) MarkOutput(name string) error {
	id, ok := c.byName[name]
	if !ok {
		return unknownOutput(name)
	}
	return c.markOutput(id)
}

func unknownOutput(name string) error {
	return fmt.Errorf("%w: %q (output)", ErrUnknownNode, name)
}

// markOutput is MarkOutput after the name lookup.
func (c *Circuit) markOutput(id NodeID) error {
	if c.Nodes[id].Kind == KindInput {
		return fmt.Errorf("netlist: output %q is a primary input", c.Nodes[id].Name)
	}
	if c.isOutput(id) {
		return fmt.Errorf("netlist: output %q marked twice", c.Nodes[id].Name)
	}
	if int(id) >= len(c.isOut) {
		c.isOut = append(c.isOut, make([]bool, len(c.Nodes)-len(c.isOut))...)
	}
	c.isOut[id] = true
	c.Outputs = append(c.Outputs, id)
	return nil
}

// isOutput reports whether id is marked as a primary output.
func (c *Circuit) isOutput(id NodeID) bool {
	return uint(id) < uint(len(c.isOut)) && c.isOut[id]
}

// Lookup returns the id of the named node.
func (c *Circuit) Lookup(name string) (NodeID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// MustID returns the id of the named node, panicking if absent. It is
// intended for tests and built-in circuits.
func (c *Circuit) MustID(name string) NodeID {
	id, ok := c.byName[name]
	if !ok {
		panic("netlist: unknown node " + name)
	}
	return id
}

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int {
	n := 0
	for _, nd := range c.Nodes {
		if nd.Kind == KindInput {
			n++
		}
	}
	return n
}

// NumGates returns the number of gate instances.
func (c *Circuit) NumGates() int { return len(c.Nodes) - c.NumInputs() }

// InputIDs returns the ids of all primary inputs in insertion order,
// in one allocation of the exact length.
func (c *Circuit) InputIDs() []NodeID {
	ids := make([]NodeID, 0, c.NumInputs())
	for i, nd := range c.Nodes {
		if nd.Kind == KindInput {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// GateIDs returns the ids of all gates in insertion order, in one
// allocation of the exact length.
func (c *Circuit) GateIDs() []NodeID {
	ids := make([]NodeID, 0, c.NumGates())
	for i, nd := range c.Nodes {
		if nd.Kind == KindGate {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// Validate checks structural invariants: at least one gate and one
// output, no dangling fanin references, gates have at least one fanin,
// inputs none, output list is consistent, and the fanin relation is
// acyclic. AddGate resolves fanins by name, so every fanin id it
// stores is below its gate's id, which proves acyclicity in the same
// O(E) pass; Kahn's algorithm runs only when a hand-built circuit has
// a fanin at or above its gate.
func (c *Circuit) Validate() error {
	if len(c.Nodes) == 0 {
		return errors.New("netlist: empty circuit")
	}
	if len(c.Outputs) == 0 {
		return errors.New("netlist: no primary outputs")
	}
	forward := false // some fanin id is not below its gate's id
	for i, nd := range c.Nodes {
		switch nd.Kind {
		case KindInput:
			if len(nd.Fanin) != 0 {
				return fmt.Errorf("netlist: input %q has fanin", nd.Name)
			}
		case KindGate:
			if len(nd.Fanin) == 0 {
				return fmt.Errorf("netlist: gate %q has no fanin", nd.Name)
			}
			if nd.Type == "" {
				return fmt.Errorf("netlist: gate %q has no type", nd.Name)
			}
			for _, f := range nd.Fanin {
				if f < 0 || int(f) >= len(c.Nodes) {
					return fmt.Errorf("netlist: gate %q references node %d out of range", nd.Name, f)
				}
				forward = forward || f >= NodeID(i)
			}
		default:
			return fmt.Errorf("netlist: node %q has invalid kind %v", nd.Name, nd.Kind)
		}
		if got, ok := c.byName[nd.Name]; !ok || got != NodeID(i) {
			return fmt.Errorf("netlist: name index inconsistent for %q", nd.Name)
		}
	}
	for _, o := range c.Outputs {
		if o < 0 || int(o) >= len(c.Nodes) {
			return fmt.Errorf("netlist: output id %d out of range", o)
		}
	}
	if forward {
		if _, err := c.TopoOrder(); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	cp := New(c.Name)
	cp.Nodes = make([]Node, len(c.Nodes))
	for i, nd := range c.Nodes {
		nd.Fanin = append([]NodeID(nil), nd.Fanin...)
		cp.Nodes[i] = nd
		cp.byName[nd.Name] = NodeID(i)
	}
	cp.Outputs = append([]NodeID(nil), c.Outputs...)
	cp.isOut = append([]bool(nil), c.isOut...)
	return cp
}

// Stats summarizes circuit structure for reporting.
type Stats struct {
	Inputs, Gates, Outputs int
	Depth                  int // longest input-to-output path in gates
	MaxFanin, MaxFanout    int
}

// ComputeStats returns structural statistics. The circuit must be
// acyclic.
func (c *Circuit) ComputeStats() (Stats, error) {
	g, err := Compile(c)
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Inputs:  c.NumInputs(),
		Gates:   c.NumGates(),
		Outputs: len(c.Outputs),
	}
	for _, nd := range c.Nodes {
		if len(nd.Fanin) > s.MaxFanin {
			s.MaxFanin = len(nd.Fanin)
		}
	}
	for _, fo := range g.Fanout {
		if len(fo) > s.MaxFanout {
			s.MaxFanout = len(fo)
		}
	}
	for _, id := range c.Outputs {
		if l := g.Level[id]; l > s.Depth {
			s.Depth = l
		}
	}
	return s, nil
}

// SortedNames returns all node names sorted, for deterministic output.
func (c *Circuit) SortedNames() []string {
	names := make([]string, 0, len(c.Nodes))
	for _, nd := range c.Nodes {
		names = append(names, nd.Name)
	}
	sort.Strings(names)
	return names
}
