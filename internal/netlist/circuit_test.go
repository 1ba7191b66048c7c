package netlist

import (
	"errors"
	"strings"
	"testing"
)

func mustBuild(t *testing.T, f func(c *Circuit) error) *Circuit {
	t.Helper()
	c := New("t")
	if err := f(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAddAndLookup(t *testing.T) {
	c := New("t")
	ia, err := c.AddInput("a")
	if err != nil {
		t.Fatal(err)
	}
	ig, err := c.AddGate("g", "inv", "a")
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := c.Lookup("a"); !ok || id != ia {
		t.Errorf("lookup a = %v %v", id, ok)
	}
	if id, ok := c.Lookup("g"); !ok || id != ig {
		t.Errorf("lookup g = %v %v", id, ok)
	}
	if _, ok := c.Lookup("zz"); ok {
		t.Error("lookup of missing node succeeded")
	}
	if c.MustID("g") != ig {
		t.Error("MustID mismatch")
	}
}

func TestDuplicateName(t *testing.T) {
	c := New("t")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddInput("a"); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate input err = %v", err)
	}
	if _, err := c.AddGate("a", "inv", "a"); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate gate err = %v", err)
	}
}

// TestDuplicateNameKeepsIndex: a rejected duplicate name, input or
// gate, leaves the first node's index entry, the node list and
// Validate as they were, and ReadCKT rejects every duplicate.
func TestDuplicateNameKeepsIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  func(c *Circuit) error
	}{
		{"AddInput of an input", func(c *Circuit) error { _, err := c.AddInput("a"); return err }},
		{"AddInput of a gate", func(c *Circuit) error { _, err := c.AddInput("g"); return err }},
		{"AddGate of an input", func(c *Circuit) error { _, err := c.AddGate("b", "inv", "g"); return err }},
		{"AddGate of a gate", func(c *Circuit) error { _, err := c.AddGate("g", "nand2", "a", "b"); return err }},
	} {
		c := mustBuild(t, func(c *Circuit) error {
			for _, in := range []string{"a", "b"} {
				if _, err := c.AddInput(in); err != nil {
					return err
				}
			}
			if _, err := c.AddGate("g", "nand2", "a", "b"); err != nil {
				return err
			}
			return c.MarkOutput("g")
		})
		before := map[string]NodeID{"a": 0, "b": 1, "g": 2}
		if err := tc.add(c); !errors.Is(err, ErrDuplicateName) {
			t.Errorf("%s: err = %v, want ErrDuplicateName", tc.name, err)
		}
		for name, want := range before {
			if id, ok := c.Lookup(name); !ok || id != want {
				t.Errorf("%s: Lookup(%q) = %d, %v, want %d", tc.name, name, id, ok, want)
			}
		}
		if len(c.Nodes) != len(before) {
			t.Errorf("%s: %d nodes, want %d", tc.name, len(c.Nodes), len(before))
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", tc.name, err)
		}
		// The circuit still grows normally after the rejection.
		if id, err := c.AddGate("h", "inv", "g"); err != nil || id != 3 {
			t.Errorf("%s: AddGate after the rejection = %d, %v, want 3", tc.name, id, err)
		}
	}

	for _, text := range []string{
		"input a b a\ngate g nand2 a b\noutput g\n",
		"input a b\ngate g nand2 a b\ninput g\noutput g\n",
		"input a b\ngate a inv b\noutput a\n",
		"input a b\ngate g nand2 a b\ngate g inv a\noutput g\n",
	} {
		if _, err := ReadCKT(strings.NewReader(text)); !errors.Is(err, ErrDuplicateName) {
			t.Errorf("ReadCKT(%q): err = %v, want ErrDuplicateName", text, err)
		}
	}
}

func TestUnknownFanin(t *testing.T) {
	c := New("t")
	if _, err := c.AddGate("g", "inv", "missing"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown fanin err = %v", err)
	}
}

func TestMarkOutputErrors(t *testing.T) {
	c := New("t")
	c.AddInput("a")
	c.AddGate("g", "inv", "a")
	if err := c.MarkOutput("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown output err = %v", err)
	}
	if err := c.MarkOutput("a"); err == nil {
		t.Error("marking an input as output succeeded")
	}
	if err := c.MarkOutput("g"); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput("g"); err == nil {
		t.Error("double-marking output succeeded")
	}
}

func TestCounts(t *testing.T) {
	c := Tree7()
	if c.NumInputs() != 8 {
		t.Errorf("inputs = %d", c.NumInputs())
	}
	if c.NumGates() != 7 {
		t.Errorf("gates = %d", c.NumGates())
	}
	if len(c.InputIDs()) != 8 || len(c.GateIDs()) != 7 {
		t.Error("id lists inconsistent")
	}
}

func TestValidateGood(t *testing.T) {
	for _, c := range []*Circuit{Tree7(), Fig2Example(), Chain(5), BalancedTree(4)} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := Tree7()
	c.Nodes[c.MustID("G")].Fanin[0] = NodeID(999)
	if err := c.Validate(); err == nil {
		t.Error("out-of-range fanin not caught")
	}

	c = Tree7()
	c.Outputs = nil
	if err := c.Validate(); err == nil {
		t.Error("missing outputs not caught")
	}

	c = Tree7()
	// Introduce a cycle: make A depend on G.
	a := c.MustID("A")
	c.Nodes[a].Fanin = append(c.Nodes[a].Fanin, c.MustID("G"))
	if err := c.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle err = %v", err)
	}
}

func TestTopoOrderRespectsFanin(t *testing.T) {
	c := Fig2Example()
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for i, nd := range c.Nodes {
		for _, f := range nd.Fanin {
			if pos[f] >= pos[NodeID(i)] {
				t.Errorf("%s before its fanin %s", nd.Name, c.Nodes[f].Name)
			}
		}
	}
}

func TestCompileLevelsAndFanout(t *testing.T) {
	g := MustCompile(Tree7())
	c := g.C
	wantLevels := map[string]int{
		"i0": 0, "A": 1, "B": 1, "D": 1, "E": 1, "C": 2, "F": 2, "G": 3,
	}
	for name, lvl := range wantLevels {
		if got := g.Level[c.MustID(name)]; got != lvl {
			t.Errorf("level(%s) = %d, want %d", name, got, lvl)
		}
	}
	// A drives only C.
	fo := g.Fanout[c.MustID("A")]
	if len(fo) != 1 || fo[0] != c.MustID("C") {
		t.Errorf("fanout(A) = %v", fo)
	}
	// G drives nothing and is the output.
	if len(g.Fanout[c.MustID("G")]) != 0 || !g.IsOutput(c.MustID("G")) {
		t.Error("G fanout/output inconsistent")
	}
	if !g.IsOutput(c.MustID("G")) || g.IsOutput(c.MustID("A")) {
		t.Error("IsOutput wrong")
	}
}

func TestFanoutCountsMultiplePins(t *testing.T) {
	// A gate using the same driver on two pins contributes two loads.
	c := New("t")
	c.AddInput("a")
	c.AddGate("g1", "inv", "a")
	if _, err := c.AddGate("g2", "nand2", "g1", "g1"); err != nil {
		t.Fatal(err)
	}
	c.MarkOutput("g2")
	g := MustCompile(c)
	if n := len(g.Fanout[c.MustID("g1")]); n != 2 {
		t.Errorf("fanout pins = %d, want 2", n)
	}
}

func TestDanglingGates(t *testing.T) {
	c := New("t")
	c.AddInput("a")
	c.AddGate("used", "inv", "a")
	c.AddGate("dead", "inv", "a")
	c.AddGate("out", "inv", "used")
	c.MarkOutput("out")
	g := MustCompile(c)
	d := g.DanglingGates()
	if len(d) != 1 || c.Nodes[d[0]].Name != "dead" {
		t.Errorf("dangling = %v", d)
	}
}

func TestClone(t *testing.T) {
	c := Tree7()
	cp := c.Clone()
	cp.Nodes[cp.MustID("G")].Fanin[0] = 0
	if c.Nodes[c.MustID("G")].Fanin[0] == 0 {
		t.Error("clone shares fanin storage")
	}
	if _, ok := cp.Lookup("G"); !ok {
		t.Error("clone lost name index")
	}
}

func TestComputeStats(t *testing.T) {
	s, err := Tree7().ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Inputs: 8, Gates: 7, Outputs: 1, Depth: 3, MaxFanin: 2, MaxFanout: 1}
	if s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

func TestChain(t *testing.T) {
	c := Chain(10)
	if c.NumGates() != 10 || len(c.Outputs) != 1 {
		t.Errorf("chain: %d gates %d outs", c.NumGates(), len(c.Outputs))
	}
	s, _ := c.ComputeStats()
	if s.Depth != 10 {
		t.Errorf("chain depth = %d", s.Depth)
	}
}

func TestBalancedTree(t *testing.T) {
	c := BalancedTree(3)
	if c.NumGates() != 7 || c.NumInputs() != 8 {
		t.Errorf("btree(3): %d gates %d inputs", c.NumGates(), c.NumInputs())
	}
	s, _ := c.ComputeStats()
	if s.Depth != 3 {
		t.Errorf("btree depth = %d", s.Depth)
	}
	defer func() {
		if recover() == nil {
			t.Error("BalancedTree(0) did not panic")
		}
	}()
	BalancedTree(0)
}

func TestRippleAdder(t *testing.T) {
	c := RippleAdder(4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 5 gates per bit: axb, s, ab, xc, c(i+1).
	if c.NumGates() != 20 {
		t.Errorf("gates = %d, want 20", c.NumGates())
	}
	if c.NumInputs() != 9 { // 2n + cin
		t.Errorf("inputs = %d, want 9", c.NumInputs())
	}
	if len(c.Outputs) != 5 { // n sums + cout
		t.Errorf("outputs = %d, want 5", len(c.Outputs))
	}
	s, err := c.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	// The carry chain dominates the depth: 2 gates per bit plus the
	// sum stage.
	if s.Depth < 8 {
		t.Errorf("depth = %d, want a carry chain", s.Depth)
	}
	defer func() {
		if recover() == nil {
			t.Error("RippleAdder(0) did not panic")
		}
	}()
	RippleAdder(0)
}

func TestFig2Structure(t *testing.T) {
	c := Fig2Example()
	if c.NumGates() != 4 || len(c.Outputs) != 2 {
		t.Fatalf("fig2: %d gates %d outs", c.NumGates(), len(c.Outputs))
	}
	d := c.Nodes[c.MustID("D")]
	if len(d.Fanin) != 3 {
		t.Errorf("D fanin = %d", len(d.Fanin))
	}
	names := map[string]bool{}
	for _, f := range d.Fanin {
		names[c.Nodes[f].Name] = true
	}
	for _, want := range []string{"A", "B", "C"} {
		if !names[want] {
			t.Errorf("D missing fanin %s", want)
		}
	}
}

func TestSortedNames(t *testing.T) {
	c := Fig2Example()
	names := c.SortedNames()
	if len(names) != 7 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("not sorted: %v", names)
		}
	}
}

func TestNodeKindString(t *testing.T) {
	if KindInput.String() != "input" || KindGate.String() != "gate" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(NodeKind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

// TestIDListsAllocateOnce pins GateIDs and InputIDs to one allocation
// of the exact length, in insertion order.
func TestIDListsAllocateOnce(t *testing.T) {
	c, err := Generate(GenSpec{Name: "ids", Gates: 2000, Inputs: 64, Outputs: 16, Depth: 20, MaxFanin: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ids  func() []NodeID
		kind NodeKind
	}{
		{"GateIDs", c.GateIDs, KindGate},
		{"InputIDs", c.InputIDs, KindInput},
	} {
		ids := tc.ids()
		var want []NodeID
		for i, nd := range c.Nodes {
			if nd.Kind == tc.kind {
				want = append(want, NodeID(i))
			}
		}
		if len(ids) != len(want) || cap(ids) != len(want) {
			t.Fatalf("%s: len %d cap %d, want both %d", tc.name, len(ids), cap(ids), len(want))
		}
		for i := range ids {
			if ids[i] != want[i] {
				t.Fatalf("%s[%d] = %d, want %d", tc.name, i, ids[i], want[i])
			}
		}
		if a := testing.AllocsPerRun(20, func() { tc.ids() }); a != 1 {
			t.Errorf("%s: %v allocations per call, want 1", tc.name, a)
		}
	}
}

// scanIsOutput is the reference output test: a linear scan of Outputs.
func scanIsOutput(c *Circuit, id NodeID) bool {
	for _, o := range c.Outputs {
		if o == id {
			return true
		}
	}
	return false
}

// checkOutputIndex compares the output index, read on the circuit and
// through g, against the reference scan for every node.
func checkOutputIndex(t *testing.T, when string, c *Circuit, g *Graph) {
	t.Helper()
	for i := range c.Nodes {
		id := NodeID(i)
		want := scanIsOutput(c, id)
		if got := c.isOutput(id); got != want {
			t.Fatalf("%s: Circuit.isOutput(%s) = %v, want %v", when, c.Nodes[i].Name, got, want)
		}
		if got := g.IsOutput(id); got != want {
			t.Fatalf("%s: Graph.IsOutput(%s) = %v, want %v", when, c.Nodes[i].Name, got, want)
		}
	}
}

// TestIsOutputIndex checks the O(1) output index against a scan of
// Outputs for every node after each MarkOutput, on a graph compiled
// before the later marks (the order Generate marks in), and checks
// that a clone's index is independent of the original's.
func TestIsOutputIndex(t *testing.T) {
	c := New("idx")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	gates := []struct {
		name, typ string
		fanin     []string
	}{
		{"g1", "nand2", []string{"a", "b"}},
		{"g2", "inv", []string{"g1"}},
		{"g3", "nand2", []string{"g1", "b"}},
		{"g4", "nand2", []string{"g2", "g3"}},
	}
	for _, gt := range gates {
		if _, err := c.AddGate(gt.name, gt.typ, gt.fanin...); err != nil {
			t.Fatal(err)
		}
	}
	g := MustCompile(c)
	checkOutputIndex(t, "unmarked", c, g)
	for _, name := range []string{"g4", "g2", "g3"} {
		if err := c.MarkOutput(name); err != nil {
			t.Fatal(err)
		}
		checkOutputIndex(t, "after "+name, c, g)
	}
	if err := c.MarkOutput("g2"); err == nil {
		t.Error("second mark of g2 accepted")
	}
	if err := c.MarkOutput("a"); err == nil {
		t.Error("primary input marked as an output")
	}
	checkOutputIndex(t, "after rejected marks", c, g)
	if g.IsOutput(-1) || g.IsOutput(NodeID(len(c.Nodes))) {
		t.Error("IsOutput true for an out-of-range id")
	}

	cp := c.Clone()
	gc := MustCompile(cp)
	if err := cp.MarkOutput("g1"); err != nil {
		t.Fatal(err)
	}
	checkOutputIndex(t, "clone after g1", cp, gc)
	checkOutputIndex(t, "original after the clone's mark", c, g)
	if g.IsOutput(c.MustID("g1")) {
		t.Error("marking the clone's g1 marked the original's")
	}
	if err := c.MarkOutput("g1"); err != nil {
		t.Fatalf("original g1 rejected after the clone marked its own: %v", err)
	}
	checkOutputIndex(t, "original after g1", c, g)

	// A node added after marks starts unmarked.
	if _, err := c.AddGate("g5", "inv", "g4"); err != nil {
		t.Fatal(err)
	}
	g = MustCompile(c)
	checkOutputIndex(t, "after a later gate", c, g)
	if err := c.MarkOutput("g5"); err != nil {
		t.Fatal(err)
	}
	checkOutputIndex(t, "after g5", c, g)
}
