package ssta

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// c17Bench is ISCAS-C17 in .bench form, gates out of declaration
// order, so its NodeIDs disagree with the level order.
const c17Bench = `
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
22 = NAND(10, 16)
23 = NAND(16, 19)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
`

// scheduleTestModels covers the built-in tree and k2 circuits, the
// generated netlist, a streamed netlist read back from its .ckt text
// and a .bench circuit.
func scheduleTestModels(t *testing.T) map[string]*delay.Model {
	t.Helper()
	par := parallelTestModels(t)
	models := map[string]*delay.Model{
		"tree7":   par["tree7"],
		"k2":      par["k2"],
		"gen1200": par["gen1200"],
	}
	var buf bytes.Buffer
	spec := netlist.GenSpec{Name: "stream2k", Gates: 2000, Inputs: 64, Outputs: 16, Depth: 24, MaxFanin: 4, Seed: 77}
	if err := netlist.GenerateStream(&buf, spec); err != nil {
		t.Fatal(err)
	}
	c, err := netlist.ReadCKT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	models["stream2k"] = delay.MustBind(netlist.MustCompile(c), delay.Default())
	c, err = netlist.ReadBench(strings.NewReader(c17Bench))
	if err != nil {
		t.Fatal(err)
	}
	models["c17"] = delay.MustBind(netlist.MustCompile(c), delay.Default())
	return models
}

// node returns the NodeID at schedule position p.
func (sc *schedule) node(p int) netlist.NodeID { return netlist.NodeID(sc.order[p]) }

// pinOff returns position p's fanin pin offsets in pin order.
func (sc *schedule) pinOff(p int) []float64 { return sc.poff[sc.finOff[p]:sc.finOff[p+1]] }

// TestScheduleInvariants checks the engine's compiled sweep schedule
// against the model it was compiled from: the order is the level
// buckets concatenated, every position's fanin and fanout positions
// map back to the graph's lists in order, every position's model
// copies (TInt, CLoad, pin offsets, fanout pin CIn, input arrival)
// equal the model's entries, the slabs were sized exactly, and the tape offsets
// tile the arena without overlap in level order.
func TestScheduleInvariants(t *testing.T) {
	for name, m := range scheduleTestModels(t) {
		g := m.G
		n := len(g.C.Nodes)
		h := NewHier(m, m.UnitSizes(), HierOptions{})
		sc := &h.sc
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s: "+format, append([]any{name}, args...)...)
		}
		if len(sc.order) != n || len(sc.lvl) != len(g.Levels)+1 || int(sc.lvl[len(g.Levels)]) != n {
			fail("order has %d nodes, lvl %d entries ending at %d", len(sc.order), len(sc.lvl), sc.lvl[len(sc.lvl)-1])
		}
		inputs := g.C.NumInputs()
		if sc.nIn != inputs || int(sc.lvl[1]) != sc.nIn || len(sc.inArr) != sc.nIn {
			fail("nIn %d, level 1 at %d, %d input arrivals; want %d inputs", sc.nIn, sc.lvl[1], len(sc.inArr), inputs)
		}
		p := 0
		for l, bucket := range g.Levels {
			if int(sc.lvl[l]) != p {
				fail("level %d starts at %d, want %d", l, sc.lvl[l], p)
			}
			for _, id := range bucket {
				if sc.node(p) != id || int(sc.pos[id]) != p {
					fail("position %d holds %d (pos %d), want %d", p, sc.node(p), sc.pos[id], id)
				}
				p++
			}
		}
		if len(sc.fin) != g.Edges || cap(sc.fin) != g.Edges || len(sc.fout) != g.Edges || cap(sc.fout) != g.Edges ||
			len(sc.pinCIn) != g.Edges || cap(sc.pinCIn) != g.Edges {
			fail("pin slabs len/cap %d/%d, %d/%d and %d/%d, want %d", len(sc.fin), cap(sc.fin),
				len(sc.fout), cap(sc.fout), len(sc.pinCIn), cap(sc.pinCIn), g.Edges)
		}
		if len(sc.poff) != g.Edges || cap(sc.poff) != g.Edges {
			fail("pin offset slab len/cap %d/%d, want %d", len(sc.poff), cap(sc.poff), g.Edges)
		}
		ids := func(ps []int32) []netlist.NodeID {
			out := make([]netlist.NodeID, len(ps))
			for i, q := range ps {
				out[i] = sc.node(int(q))
			}
			return out
		}
		for p := 0; p < n; p++ {
			id := sc.node(p)
			if got := ids(sc.fanin(p)); !slices.Equal(got, g.C.Nodes[id].Fanin) {
				fail("node %d fanin %v, want %v", id, got, g.C.Nodes[id].Fanin)
			}
			a, b := sc.fanout(p)
			if got := ids(sc.fout[a:b]); !slices.Equal(got, g.Fanout[id]) {
				fail("node %d fanout %v, want %v", id, got, g.Fanout[id])
			}
			for i, f := range g.Fanout[id] {
				if sc.pinCIn[int(a)+i] != m.CIn[f] {
					fail("node %d fanout pin %d: C_in %v, want %v", id, i, sc.pinCIn[int(a)+i], m.CIn[f])
				}
			}
			if sc.tint[p] != m.TInt[id] || sc.cload[p] != m.CLoad[id] {
				fail("node %d copies tint/cload %v/%v, want %v/%v", id,
					sc.tint[p], sc.cload[p], m.TInt[id], m.CLoad[id])
			}
			for k, off := range sc.pinOff(p) {
				if want := m.PinOff(id, k); off != want {
					fail("node %d pin %d offset %v, want %v", id, k, off, want)
				}
			}
			if (p < sc.nIn) != (g.C.Nodes[id].Kind == netlist.KindInput) {
				fail("node %d at position %d: input %v, nIn %d", id, p, g.C.Nodes[id].Kind == netlist.KindInput, sc.nIn)
			}
			if p < sc.nIn && sc.inArr[p] != m.Arrival[id] {
				fail("input %d arrival %v, want %v", id, sc.inArr[p], m.Arrival[id])
			}
		}
		if got := ids(sc.outs); !slices.Equal(got, g.C.Outputs) {
			fail("outputs %v, want %v", got, g.C.Outputs)
		}

		// Tiling: every gate's span lies in the arena, no slot is
		// claimed twice, and every slot is claimed.
		owner := make([]int, len(h.tapeArena))
		for i := range owner {
			owner[i] = -1
		}
		for p := 0; p < n; p++ {
			steps := len(sc.fanin(p)) - 1
			for k := 0; k < steps; k++ {
				at := int(sc.tape[p]) + k
				if at < 0 || at >= len(owner) {
					fail("position %d slot %d outside the %d-slot arena", p, at, len(owner))
				}
				if owner[at] >= 0 {
					fail("slot %d claimed by positions %d and %d", at, owner[at], p)
				}
				owner[at] = p
			}
		}
		for at, p := range owner {
			if p < 0 {
				fail("arena slot %d unclaimed", at)
			}
		}

		// Carve order: consecutive spans, level by level — the order
		// the passes walk whole ranges.
		at := 0
		for _, ids := range g.Levels {
			for _, id := range ids {
				p := int(sc.pos[id])
				if int(sc.tape[p]) != at {
					fail("node %d tape at %d, want %d in carve order", id, sc.tape[p], at)
				}
				at += max(len(sc.fanin(p))-1, 0)
			}
		}
		if at != len(h.tapeArena) || at != sc.tapeLen {
			fail("carve order ends at %d, arena has %d slots (tapeLen %d)", at, len(h.tapeArena), sc.tapeLen)
		}
	}
}
