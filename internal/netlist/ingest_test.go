package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// gen1200Spec is the 1200-gate generated netlist the timing engines'
// tests share (internal/ssta's "gen1200").
func gen1200Spec() GenSpec {
	return GenSpec{
		Name: "par1200", Gates: 1200, Inputs: 48, Outputs: 12,
		Depth: 18, MaxFanin: 4, Seed: 1234,
	}
}

func mustGenerate(t testing.TB, spec GenSpec) *Circuit {
	t.Helper()
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cktBytes(t testing.TB, c *Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCKT(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGenerateStreamGolden pins the generator and writer output byte
// for byte: the sha256 of the gen100k stream and of the .ckt text of
// the Table 1 stand-ins are the values the fmt-based writers produced.
func TestGenerateStreamGolden(t *testing.T) {
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	if got, want := sum(gen100kText(t)), "c1b62e341f0df2368a48376f5fdcdb9cbfab858cf190a9be1ac171d1fdf9d367"; got != want {
		t.Errorf("GenerateStream(gen100k) sha256 = %s, want %s", got, want)
	}
	for _, tc := range []struct {
		c    *Circuit
		want string
	}{
		{K2Like(), "13326710f596eabc009edb87a3bfd1da5979f3830170b2dfd2cb7f88d8e554df"},
		{Apex1Like(), "329f03ea4befa28c87ae696b818f0bd6008194abbb8e29fcec909e547e7e9786"},
		{Apex2Like(), "989d5f4da0fc00b0354801c21c3f6e527291c9aa433f781867a00bba43315dc9"},
	} {
		if got := sum(cktBytes(t, tc.c)); got != tc.want {
			t.Errorf("WriteCKT(%s) sha256 = %s, want %s", tc.c.Name, got, tc.want)
		}
	}
}

// TestCompileMatchesReference holds Compile to the frozen reference
// element for element: Topo, Level, Levels and Fanout fix the
// summation order of every sweep, so any reordering would move floats.
func TestCompileMatchesReference(t *testing.T) {
	blif, err := ReadBLIF(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	bench, err := ReadBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*Circuit{
		mustGenerate(t, gen1200Spec()), Apex1Like(), Apex2Like(), K2Like(),
		Tree7(), Fig2Example(), RippleAdder(8), blif, bench,
	}
	if !testing.Short() {
		circuits = append(circuits, gen100kCircuit(t))
	}
	for _, c := range circuits {
		got, err := Compile(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want, err := refCompile(c)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.Name, err)
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Topo", got.Topo, want.Topo},
			{"Level", got.Level, want.Level},
			{"Levels", got.Levels, want.Levels},
			{"Fanout", got.Fanout, want.Fanout},
			{"Edges", got.Edges, want.Edges},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s: %s differs from the reference Compile", c.Name, f.name)
			}
		}
		order, err := c.TopoOrder()
		if err != nil || !reflect.DeepEqual(order, want.Topo) {
			t.Errorf("%s: TopoOrder differs from the reference (err %v)", c.Name, err)
		}
	}
}

// TestArenaListsDoNotAlias appends to one fanin list, fanout list and
// level bucket each and checks that the neighbouring lists, carved
// from the same backing arrays, are unchanged.
func TestArenaListsDoNotAlias(t *testing.T) {
	read, err := ReadCKT(bytes.NewReader(cktBytes(t, Apex2Like())))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Circuit{read, Apex2Like()} {
		g := MustCompile(c)
		gates := c.GateIDs()
		a, b := gates[0], gates[1]
		before := append([]NodeID(nil), c.Nodes[b].Fanin...)
		c.Nodes[a].Fanin = append(c.Nodes[a].Fanin, 0, 0)
		if !reflect.DeepEqual(c.Nodes[b].Fanin, before) {
			t.Errorf("%s: append to %d's fanin changed %d's", c.Name, a, b)
		}

		lists := [][][]NodeID{g.Fanout, g.Levels}
		for k, list := range lists {
			for i := 0; i+1 < len(list); i++ {
				if len(list[i]) == 0 || len(list[i+1]) == 0 {
					continue
				}
				before := append([]NodeID(nil), list[i+1]...)
				list[i] = append(list[i], -1)
				if !reflect.DeepEqual(list[i+1], before) {
					t.Errorf("%s: append to list %d of table %d changed list %d", c.Name, i, k, i+1)
				}
				break
			}
		}
	}
}

// TestIngestAllocs pins the allocation counts of the one-pass front
// end on gen1200 text. ReadCKT allocates each node's name once, plus
// at most readOverhead arrays: the fanin arena chunks, the node slice
// and name index as they grow, the scanner, the token list and the
// interned type names (1,318 allocations for 1,248 nodes when this
// test was written). Compile allocates a fixed set of arrays whatever
// the circuit's size, and WriteCKT only its buffer.
func TestIngestAllocs(t *testing.T) {
	small := mustGenerate(t, GenSpec{Name: "small", Gates: 120, Inputs: 12, Outputs: 4, Depth: 6, MaxFanin: 4, Seed: 3})
	text := cktBytes(t, mustGenerate(t, gen1200Spec()))
	c, err := ReadCKT(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	const readOverhead = 80
	reads := testing.AllocsPerRun(10, func() {
		if _, err := ReadCKT(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(c.Nodes) + readOverhead); reads > limit {
		t.Errorf("ReadCKT: %v allocations for %d nodes, want at most %v", reads, len(c.Nodes), limit)
	}

	const compileAllocs = 9
	for _, cc := range []*Circuit{small, c} {
		if a := testing.AllocsPerRun(10, func() { MustCompile(cc) }); a != compileAllocs {
			t.Errorf("Compile(%s): %v allocations, want %d", cc.Name, a, compileAllocs)
		}
	}

	const writeAllocs = 2
	for _, cc := range []*Circuit{small, c} {
		a := testing.AllocsPerRun(10, func() {
			if err := WriteCKT(io.Discard, cc); err != nil {
				t.Fatal(err)
			}
		})
		if a > writeAllocs {
			t.Errorf("WriteCKT(%s): %v allocations, want at most %d", cc.Name, a, writeAllocs)
		}
	}
}

// TestValidateCatchesSelfLoop: a gate listed as its own fanin is the
// one back edge whose id is not above its gate's, so Validate must
// still fall back to Kahn's algorithm for it.
func TestValidateCatchesSelfLoop(t *testing.T) {
	c := Tree7()
	a := c.MustID("A")
	c.Nodes[a].Fanin[0] = a
	if err := c.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("Validate: err = %v, want ErrCycle", err)
	}
	if _, err := Compile(c); !errors.Is(err, ErrCycle) {
		t.Errorf("Compile: err = %v, want ErrCycle", err)
	}
}
