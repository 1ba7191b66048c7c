package netlist

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The parser fuzz targets assert one invariant: arbitrary input never
// panics, and accepted input yields a circuit that passes Validate
// and survives a write/read round trip. FuzzReadCKT also holds ReadCKT
// to the frozen reference reader (ingest_ref_test.go): both accept or
// both reject, with the same error text, and accepted input builds the
// same circuit. `go test` runs the seed corpus;
// `go test -fuzz FuzzReadCKT ./internal/netlist` explores (make
// fuzz-netlist).

func FuzzReadCKT(f *testing.F) {
	f.Add(sampleCKT)
	f.Add("circuit x\ninput a\ngate g inv a\noutput g\n")
	f.Add("input a b\ngate g nand2 a b\ngate h inv g\noutput h g\n")
	f.Add("#only a comment")
	f.Add("gate g inv missing\n")
	f.Add("circuit\n")
	// Separators strings.Fields splits at beyond ASCII: U+00A0 and
	// U+0085 inside lines, and a lone 0x85 byte, which is not one.
	f.Add("input a\u00a0b\ngate g\u0085nand2 a b\noutput g\n")
	f.Add("input a\x85b c\ngate g inv c\noutput g\n")
	f.Add("circuit c\r\ninput a\r\ngate g inv a\r\noutput g\r\n")
	f.Add("input\ta\tb\ngate\tg nand2\ta \t b\noutput g\t\n")
	f.Add("input a b# c\ngate g nand2 a b #x\noutput g#\n")
	f.Add("")
	f.Add("input a\ngate g inv a\n")
	f.Add("input a\ngate g inv a\noutput g g\n")
	f.Add("input a\ngate g nand2 a a\ngate g inv a\noutput a\n")
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadCKT(strings.NewReader(in))
		ref, refErr := refReadCKT(strings.NewReader(in))
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("ReadCKT error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if d := circuitDiff(c, ref); d != "" {
			t.Fatalf("ReadCKT and the reference build different circuits: %s", d)
		}
		if vErr := c.Validate(); vErr != nil {
			t.Fatalf("accepted circuit fails validation: %v", vErr)
		}
		var buf bytes.Buffer
		if wErr := WriteCKT(&buf, c); wErr != nil {
			t.Fatalf("write failed: %v", wErr)
		}
		if _, rErr := ReadCKT(bytes.NewReader(buf.Bytes())); rErr != nil {
			t.Fatalf("round trip failed: %v", rErr)
		}
	})
}

// circuitDiff names the first field in which a and b differ, or
// returns "" if they are the same circuit, name index included.
func circuitDiff(a, b *Circuit) string {
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"Name", a.Name, b.Name},
		{"Nodes", a.Nodes, b.Nodes},
		{"Outputs", a.Outputs, b.Outputs},
		{"byName", a.byName, b.byName},
		{"isOut", a.isOut, b.isOut},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			return fmt.Sprintf("%s: %v vs %v", f.name, f.a, f.b)
		}
	}
	return ""
}

func FuzzReadBLIF(f *testing.F) {
	f.Add(sampleBLIF)
	f.Add(".model m\n.inputs a\n.outputs y\n.gate inv A=a O=y\n.end\n")
	f.Add(".inputs a\n.gate inv A=a O=y\n")
	f.Add(".names a b\n1 1\n")
	f.Add(".gate\n")
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadBLIF(strings.NewReader(in))
		if err != nil {
			return
		}
		if vErr := c.Validate(); vErr != nil {
			t.Fatalf("accepted circuit fails validation: %v", vErr)
		}
	})
}

func FuzzReadBench(f *testing.F) {
	f.Add(sampleBench)
	f.Add("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
	f.Add("INPUT(a)\nz = DFF(a)\n")
	f.Add("garbage")
	f.Add("x = NAND(")
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadBench(strings.NewReader(in))
		if err != nil {
			return
		}
		if vErr := c.Validate(); vErr != nil {
			t.Fatalf("accepted circuit fails validation: %v", vErr)
		}
		// Accepted .bench circuits use default-library-compatible
		// types, so the writer must succeed too.
		var buf bytes.Buffer
		if wErr := WriteBench(&buf, c); wErr != nil {
			t.Fatalf("write failed: %v", wErr)
		}
	})
}
