package netlist

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// The ingestion benchmarks time each phase of building a model's
// netlist from text, on the streamed 100k-gate netlist (the gen100k
// preset): generate, read, build through AddGate, write and compile.
// Run them with
//
//	go test -run NONE -bench Gen100k -benchmem ./internal/netlist/

var gen100k struct {
	once sync.Once
	text []byte
	err  error
}

// gen100kText returns the gen100k netlist text, generated once per
// test binary.
func gen100kText(tb testing.TB) []byte {
	tb.Helper()
	gen100k.once.Do(func() {
		var buf bytes.Buffer
		gen100k.err = GenerateStream(&buf, Gen100kSpec())
		gen100k.text = buf.Bytes()
	})
	if gen100k.err != nil {
		tb.Fatal(gen100k.err)
	}
	return gen100k.text
}

func gen100kCircuit(tb testing.TB) *Circuit {
	tb.Helper()
	c, err := ReadCKT(bytes.NewReader(gen100kText(tb)))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func BenchmarkGenerateStreamGen100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := GenerateStream(io.Discard, Gen100kSpec()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCKTGen100k(b *testing.B) {
	text := gen100kText(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCKT(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddGateGen100k rebuilds the gen100k circuit through New,
// AddInput, AddGate and MarkOutput, the path of a builder that does not
// know its node count in advance, such as a renaming pass. The names
// are strings of the source circuit, so the loop times construction
// alone.
func BenchmarkAddGateGen100k(b *testing.B) {
	c := gen100kCircuit(b)
	fanins := faninNames(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rebuild(c, fanins); err != nil {
			b.Fatal(err)
		}
	}
}

// faninNames returns each node's fanin names, indexed by NodeID.
func faninNames(c *Circuit) [][]string {
	names := make([][]string, len(c.Nodes))
	for i, nd := range c.Nodes {
		for _, f := range nd.Fanin {
			names[i] = append(names[i], c.Nodes[f].Name)
		}
	}
	return names
}

// rebuild builds a copy of c through the exported Add* and MarkOutput
// methods, in c's node and output order.
func rebuild(c *Circuit, fanins [][]string) (*Circuit, error) {
	out := New(c.Name)
	for i, nd := range c.Nodes {
		var err error
		if nd.Kind == KindInput {
			_, err = out.AddInput(nd.Name)
		} else {
			_, err = out.AddGate(nd.Name, nd.Type, fanins[i]...)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, o := range c.Outputs {
		if err := out.MarkOutput(c.Nodes[o].Name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func BenchmarkWriteCKTGen100k(b *testing.B) {
	c := gen100kCircuit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCKT(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileGen100k(b *testing.B) {
	c := gen100kCircuit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(c); err != nil {
			b.Fatal(err)
		}
	}
}
