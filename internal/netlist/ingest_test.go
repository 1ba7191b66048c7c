package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
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

// TestIngestAllocs pins the allocation counts and bytes of the
// front end on gen1200 text. ReadCKT allocates per chunk, not per
// node: the name chunks, the fanin arena chunks, the node slice and
// the name index's tables (once each when the reader reports its
// length), the scanner, the token list and the interned type names,
// 50 allocations for 1,248 nodes when this test was written.
//
// The byte pins count what a build allocates beyond its name index:
// the index is a map, whose layout differs between Go releases, so
// the test measures a map filled the same way on the running
// toolchain and subtracts it (on go1.24.0 it took 44 bytes per node
// from a sized map and 87 from an unsized one). ReadCKT stays under
// readBytesPerNode, which covers a length hint that fell short
// (gen1200 text takes 25 bytes per node, fewer than bytesPerNode):
// Nodes is re-sized once from the bytes per node read so far, so it
// is allocated twice, not three times, and the circuit keeps at most
// an eighth of it unused (218 bytes per node when the pin was last
// tightened, 323 before the re-estimate). apex2 text, whose input
// block is denser than its gate lines, stays under apex2BytesPerNode. Generate, which sizes Nodes
// and the index once and adds nodes by id, stays under
// genBytesPerNode (156 when last tightened) and genAllocs (1,015
// allocations, the level and cone lists), and AddGate from names,
// which doubles Nodes, under addBytesPerNode; AddGate is measured at
// 20k gates, where append's quarter-step growth would exceed it (when
// this test was written, append read 341 bytes per node and doubling
// 255).
// Compile allocates a fixed set of arrays whatever the circuit's size,
// and WriteCKT only its buffer. The byte pins are checked only without
// the race detector (see raceEnabled).
func TestIngestAllocs(t *testing.T) {
	small := mustGenerate(t, GenSpec{Name: "small", Gates: 120, Inputs: 12, Outputs: 4, Depth: 6, MaxFanin: 4, Seed: 3})
	gen := mustGenerate(t, gen1200Spec())
	text := cktBytes(t, gen)
	c, err := ReadCKT(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	nodes := float64(len(c.Nodes))
	read := func() {
		if _, err := ReadCKT(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	const readAllocs = 60
	if a := testing.AllocsPerRun(10, read); a > readAllocs {
		t.Errorf("ReadCKT: %v allocations for %v nodes, want at most %d", a, nodes, readAllocs)
	}
	if !raceEnabled {
		const readBytesPerNode = 240
		if b := (bytesPerRun(10, read) - indexBytes(c, len(text)/bytesPerNode)) / nodes; b > readBytesPerNode {
			t.Errorf("ReadCKT: %.1f bytes per node beyond the name index, want at most %d", b, readBytesPerNode)
		}

		// apex2's 39 inputs take about 4 bytes of text each and its
		// gates 22, so an estimate from all bytes read overshoots the
		// doubling cap at the first overflow and Nodes was allocated
		// three times (652 bytes per node); from the gate lines alone
		// it is re-sized once and kept (569).
		const apex2BytesPerNode = 600
		apex2 := cktBytes(t, Apex2Like())
		ac, err := ReadCKT(bytes.NewReader(apex2))
		if err != nil {
			t.Fatal(err)
		}
		readApex2 := func() {
			if _, err := ReadCKT(bytes.NewReader(apex2)); err != nil {
				t.Fatal(err)
			}
		}
		if b := (bytesPerRun(10, readApex2) - indexBytes(ac, len(apex2)/bytesPerNode)) / float64(len(ac.Nodes)); b > apex2BytesPerNode {
			t.Errorf("ReadCKT(apex2): %.1f bytes per node beyond the name index, want at most %d", b, apex2BytesPerNode)
		}

		const genBytesPerNode = 175
		if b := (bytesPerRun(10, func() { mustGenerate(t, gen1200Spec()) }) - indexBytes(gen, len(gen.Nodes))) / nodes; b > genBytesPerNode {
			t.Errorf("Generate: %.1f bytes per node beyond the name index, want at most %d", b, genBytesPerNode)
		}

		const addBytesPerNode = 270
		big := mustGenerate(t, GenSpec{Name: "build20k", Gates: 20000, Inputs: 64, Outputs: 16, Depth: 24, MaxFanin: 4, Seed: 7})
		fanins := faninNames(big)
		rebuildBig := func() {
			if _, err := rebuild(big, fanins); err != nil {
				t.Fatal(err)
			}
		}
		if b := (bytesPerRun(5, rebuildBig) - indexBytes(big, 0)) / float64(len(big.Nodes)); b > addBytesPerNode {
			t.Errorf("AddGate: %.1f bytes per node beyond the name index, want at most %d", b, addBytesPerNode)
		}
	}

	// Generate adds nodes by id, so what it allocates per gate is
	// only the level and cone lists its appends grow.
	const genAllocs = 1100
	if a := testing.AllocsPerRun(10, func() { mustGenerate(t, gen1200Spec()) }); a > genAllocs {
		t.Errorf("Generate: %v allocations for %v nodes, want at most %d", a, nodes, genAllocs)
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

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// indexSink keeps indexBytes' map on the heap, as a circuit's is.
var indexSink map[string]NodeID

// indexBytes is the heap bytes of indexing c's names as add does, in
// a map made for hint names.
func indexBytes(c *Circuit, hint int) float64 {
	return bytesPerRun(5, func() {
		m := make(map[string]NodeID, hint)
		for i, nd := range c.Nodes {
			m[nd.Name] = NodeID(i)
		}
		indexSink = m
	})
}

// TestReadCKTReservationBound feeds ReadCKT inputs whose length
// promises far more nodes than they hold. The length hint may reserve
// at most maxReserve bytes per input byte (see bytesPerNode), on top
// of the scanner's 64 KiB line buffer and the names themselves. The
// index's share of that bound, and the table boundary below, are
// those of go1.24's Swiss-table maps: the bound was measured on
// go1.24.0, the toolchain the CI workflow installs.
func TestReadCKTReservationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts differ under the race detector")
	}
	const maxReserve = 4.5
	comments := func(n int) string {
		return strings.Repeat("# a comment line of thirty-two b\n", n/32+1)[:n]
	}
	var longNames strings.Builder
	for i := 0; longNames.Len() < 1<<20; i++ {
		fmt.Fprintf(&longNames, "input %s%d\n", strings.Repeat("n", 1000), i)
	}
	longNames.WriteString("gate g inv " + strings.Repeat("n", 1000) + "0\noutput g\n")
	for _, tc := range []struct {
		name  string
		in    string
		valid bool
		names int // at least the name bytes the circuit keeps
	}{
		{"1 MiB of comments", comments(1 << 20), false, 0},
		// On go1.24, 28,728 hinted nodes put each of the index's 64
		// tables just past 512 slots, so each is allocated at 1,024:
		// the most the index reserves per hinted node.
		{"comments at an index table boundary", comments(28728 * bytesPerNode), false, 0},
		{"1 MiB of 1000-byte names", longNames.String(), true, longNames.Len()},
	} {
		_, err := ReadCKT(strings.NewReader(tc.in))
		if (err == nil) != tc.valid {
			t.Fatalf("%s: err = %v, want valid %v", tc.name, err, tc.valid)
		}
		b := bytesPerRun(3, func() { ReadCKT(strings.NewReader(tc.in)) })
		if limit := maxReserve*float64(len(tc.in)) + float64(tc.names) + 64<<10 + 4<<10; b > limit {
			t.Errorf("%s: ReadCKT allocated %.0f bytes for %d bytes of input, want at most %.0f", tc.name, b, len(tc.in), limit)
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
