package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Frozen copies of the netlist front end before the one-pass reader:
// the .ckt reader (sc.Text, strings.Fields, one fanin slice per gate,
// Validate with an unconditional Kahn pass) and Compile (per-node
// fanout appends, queue-based Kahn, per-bucket level appends). The
// differential fuzzer and TestCompileMatchesReference hold the
// current code to them element for element. Do not edit them to match
// a change: they define the behaviour every change must keep.

func refReadCKT(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	c := New("circuit")
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "circuit":
			if len(fields) != 2 {
				return nil, fmt.Errorf("ckt line %d: circuit takes one name", lineNo)
			}
			c.Name = fields[1]
		case "input":
			if len(fields) < 2 {
				return nil, fmt.Errorf("ckt line %d: input needs names", lineNo)
			}
			for _, n := range fields[1:] {
				if err := refAdd(c, Node{Name: n, Kind: KindInput}); err != nil {
					return nil, fmt.Errorf("ckt line %d: %w", lineNo, err)
				}
			}
		case "gate":
			if len(fields) < 4 {
				return nil, fmt.Errorf("ckt line %d: gate needs name, type and fanins", lineNo)
			}
			if err := refAddGate(c, fields[1], fields[2], fields[3:]...); err != nil {
				return nil, fmt.Errorf("ckt line %d: %w", lineNo, err)
			}
		case "output":
			if len(fields) < 2 {
				return nil, fmt.Errorf("ckt line %d: output needs names", lineNo)
			}
			for _, n := range fields[1:] {
				if err := refMarkOutput(c, n); err != nil {
					return nil, fmt.Errorf("ckt line %d: %w", lineNo, err)
				}
			}
		default:
			return nil, fmt.Errorf("ckt line %d: unknown keyword %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := refValidate(c); err != nil {
		return nil, err
	}
	return c, nil
}

func refAddGate(c *Circuit, name, typ string, fanin ...string) error {
	ids := make([]NodeID, len(fanin))
	for i, f := range fanin {
		id, ok := c.byName[f]
		if !ok {
			return fmt.Errorf("%w: %q (fanin of %q)", ErrUnknownNode, f, name)
		}
		ids[i] = id
	}
	return refAdd(c, Node{Name: name, Kind: KindGate, Type: typ, Fanin: ids})
}

func refAdd(c *Circuit, n Node) error {
	if _, dup := c.byName[n.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateName, n.Name)
	}
	c.byName[n.Name] = NodeID(len(c.Nodes))
	c.Nodes = append(c.Nodes, n)
	return nil
}

func refMarkOutput(c *Circuit, name string) error {
	id, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q (output)", ErrUnknownNode, name)
	}
	if c.Nodes[id].Kind == KindInput {
		return fmt.Errorf("netlist: output %q is a primary input", name)
	}
	if uint(id) < uint(len(c.isOut)) && c.isOut[id] {
		return fmt.Errorf("netlist: output %q marked twice", name)
	}
	if int(id) >= len(c.isOut) {
		c.isOut = append(c.isOut, make([]bool, len(c.Nodes)-len(c.isOut))...)
	}
	c.isOut[id] = true
	c.Outputs = append(c.Outputs, id)
	return nil
}

func refValidate(c *Circuit) error {
	if len(c.Nodes) == 0 {
		return errors.New("netlist: empty circuit")
	}
	if len(c.Outputs) == 0 {
		return errors.New("netlist: no primary outputs")
	}
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
	_, err := refTopoOrder(c)
	return err
}

func refTopoOrder(c *Circuit) ([]NodeID, error) {
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

func refCompile(c *Circuit) (*Graph, error) {
	topo, err := refTopoOrder(c)
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
