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

// TestScheduleInvariants checks the engine's compiled sweep schedule
// against the graph it was compiled from: the order is the level
// buckets concatenated, every position's fanin and fanout pins equal
// the graph's lists, the slabs were sized exactly, and the tape
// offsets tile the arena without overlap in level order.
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
		if len(sc.fin) != g.Edges || cap(sc.fin) != g.Edges || len(sc.fout) != g.Edges || cap(sc.fout) != g.Edges {
			fail("pin slabs len/cap %d/%d and %d/%d, want %d", len(sc.fin), cap(sc.fin), len(sc.fout), cap(sc.fout), g.Edges)
		}
		for p := 0; p < n; p++ {
			id := sc.node(p)
			if !slices.Equal(sc.fanin(p), g.C.Nodes[id].Fanin) {
				fail("node %d fanin %v, want %v", id, sc.fanin(p), g.C.Nodes[id].Fanin)
			}
			if !slices.Equal(sc.fanout(p), g.Fanout[id]) {
				fail("node %d fanout %v, want %v", id, sc.fanout(p), g.Fanout[id])
			}
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
