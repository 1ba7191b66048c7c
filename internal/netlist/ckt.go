package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"
)

// The .ckt format is a minimal line-oriented gate-level netlist:
//
//	# comment
//	circuit tree7
//	input i0 i1 i2
//	gate A nand2 i0 i1
//	gate B nand2 i1 i2
//	gate G nand2 A B
//	output G
//
// Keywords: circuit (optional, first), input, gate, output. Gates must
// be declared after all of their fanins; names are arbitrary
// whitespace-free tokens. Multiple input/output lines accumulate.

// ReadCKT parses a circuit in .ckt format. It reads in one pass and
// allocates per node, not per token: each line is split in place into
// a reused token list, at exactly the bytes strings.Fields splits at,
// names are resolved through allocation-free map lookups, cell-type
// names are interned, and fanin lists are carved from the circuit's
// arena.
func ReadCKT(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	c := New("circuit")
	types := make(map[string]string)
	var toks [][]byte
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		toks = appendFields(toks[:0], line)
		if len(toks) == 0 {
			continue
		}
		switch string(toks[0]) {
		case "circuit":
			if len(toks) != 2 {
				return nil, fmt.Errorf("ckt line %d: circuit takes one name", lineNo)
			}
			c.Name = string(toks[1])
		case "input":
			if len(toks) < 2 {
				return nil, fmt.Errorf("ckt line %d: input needs names", lineNo)
			}
			for _, n := range toks[1:] {
				if _, err := c.AddInput(string(n)); err != nil {
					return nil, fmt.Errorf("ckt line %d: %w", lineNo, err)
				}
			}
		case "gate":
			if len(toks) < 4 {
				return nil, fmt.Errorf("ckt line %d: gate needs name, type and fanins", lineNo)
			}
			typ, ok := types[string(toks[2])]
			if !ok {
				typ = string(toks[2])
				types[typ] = typ
			}
			ids := c.faninSlots(len(toks) - 3)
			for i, f := range toks[3:] {
				id, ok := c.byName[string(f)]
				if !ok {
					return nil, fmt.Errorf("ckt line %d: %w", lineNo, unknownFanin(string(f), string(toks[1])))
				}
				ids[i] = id
			}
			if _, err := c.add(Node{Name: string(toks[1]), Kind: KindGate, Type: typ, Fanin: ids}); err != nil {
				return nil, fmt.Errorf("ckt line %d: %w", lineNo, err)
			}
		case "output":
			if len(toks) < 2 {
				return nil, fmt.Errorf("ckt line %d: output needs names", lineNo)
			}
			for _, n := range toks[1:] {
				id, ok := c.byName[string(n)]
				if !ok {
					return nil, fmt.Errorf("ckt line %d: %w", lineNo, unknownOutput(string(n)))
				}
				if err := c.markOutput(id); err != nil {
					return nil, fmt.Errorf("ckt line %d: %w", lineNo, err)
				}
			}
		default:
			return nil, fmt.Errorf("ckt line %d: unknown keyword %q", lineNo, toks[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends to toks the fields of line, split where
// strings.Fields splits: around each run of Unicode white space
// (unicode.IsSpace), with invalid UTF-8 bytes counted as non-space.
// The fields alias line.
func appendFields(toks [][]byte, line []byte) [][]byte {
	start := -1 // start of the field being scanned, or -1 between fields
	for i := 0; i < len(line); {
		b, width := line[i], 1
		space := asciiSpace[b]
		if b >= utf8.RuneSelf {
			var r rune
			r, width = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			toks = append(toks, line[start:i:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += width
	}
	if start >= 0 {
		toks = append(toks, line[start:len(line):len(line)])
	}
	return toks
}

// WriteCKT renders the circuit in .ckt format. The output round-trips
// through ReadCKT to an identical circuit.
func WriteCKT(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("circuit ")
	bw.WriteString(c.Name)
	bw.WriteByte('\n')
	line := 0
	for _, nd := range c.Nodes {
		if nd.Kind != KindInput {
			continue
		}
		if line == 0 {
			bw.WriteString("input")
		}
		bw.WriteByte(' ')
		bw.WriteString(nd.Name)
		line++
		if line == 16 {
			bw.WriteByte('\n')
			line = 0
		}
	}
	if line > 0 {
		bw.WriteByte('\n')
	}
	for _, nd := range c.Nodes {
		if nd.Kind != KindGate {
			continue
		}
		bw.WriteString("gate ")
		bw.WriteString(nd.Name)
		bw.WriteByte(' ')
		bw.WriteString(nd.Type)
		for _, f := range nd.Fanin {
			bw.WriteByte(' ')
			bw.WriteString(c.Nodes[f].Name)
		}
		bw.WriteByte('\n')
	}
	bw.WriteString("output")
	for _, o := range c.Outputs {
		bw.WriteByte(' ')
		bw.WriteString(c.Nodes[o].Name)
	}
	bw.WriteByte('\n')
	return bw.Flush()
}
