package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
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
// allocates per chunk, not per node or token: each line is split in
// place into a reused token list, at exactly the bytes strings.Fields
// splits at, names are resolved through allocation-free map lookups
// and copied into shared chunks, cell-type names are interned, and
// fanin lists are carved from the circuit's arena. When r reports its
// remaining length (bytes.Buffer, bytes.Reader and strings.Reader do),
// Nodes and the name index are allocated for that length over
// bytesPerNode nodes, and a netlist denser than that re-sizes Nodes
// once, from the bytes per node read so far (see growNodes).
func ReadCKT(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	total := 0 // r's length, 0 when unknown
	if l, ok := r.(interface{ Len() int }); ok {
		total = l.Len()
	}
	c := newSized("circuit", total/bytesPerNode)
	var names nameChunks
	types := make(map[string]string)
	var toks [][]byte
	lineNo := 0
	read := 0 // bytes scanned so far, up to the end of the current line
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		read += len(line) + 1
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
				c.growNodes(read, total)
				if _, err := c.add(Node{Name: names.copy(n), Kind: KindInput}); err != nil {
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
			c.growNodes(read, total)
			if _, err := c.add(Node{Name: names.copy(toks[1]), Kind: KindGate, Type: typ, Fanin: ids}); err != nil {
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
	if err := c.validate(false); err != nil {
		return nil, err
	}
	// A re-estimate or doubling that overshot leaves Nodes partly
	// empty, and the circuit usually outlives the read: past an eighth
	// of slack, keep the nodes in an array of their own size instead.
	if cap(c.Nodes)-len(c.Nodes) > len(c.Nodes)/8 {
		c.Nodes = append(make([]Node, 0, len(c.Nodes)), c.Nodes...)
	}
	return c, nil
}

// bytesPerNode is the .ckt text ReadCKT expects per node when it sizes
// Nodes and the name index from the reader's length; the generated
// netlists take 19 (apex2) to 33 (gen100k) bytes per node. A node
// needs at least two bytes of text, a one-byte name and a separator,
// so the reservation never exceeds the node count some valid netlist
// of that length holds. A reserved node costs 64 B in Nodes and, with
// go1.24's Swiss-table maps, at most 57 B in the index (24-byte slots
// at the map's 7/8 load, up to doubled by its power-of-two table
// sizes), so the reservation is (64+57)/30, about 4 bytes per input
// byte, and with the allocator's rounding at most 4.5, whatever the
// input holds (TestReadCKTReservationBound, measured on go1.24.0, the
// toolchain the CI workflow installs).
const bytesPerNode = 30

// growNodes makes room for one more node when Nodes is full and the
// reader's length total is known: it re-estimates the node count as
// the nodes held over the read bytes, scaled to total, plus a
// sixteenth, so a netlist denser than bytesPerNode (gen1200, k2 and
// the 10k-gate session netlists among the generated ones) is sized
// once more instead of doubled and copied back to size. The new
// capacity is at most double the old,
// which is what add's doubling would have reserved, so the
// reservation bound of bytesPerNode still holds; a later overflow
// re-estimates again. Without a known length add doubles.
func (c *Circuit) growNodes(read, total int) {
	n := len(c.Nodes)
	if n < cap(c.Nodes) || total <= 0 || read <= 0 {
		return
	}
	est := int(int64(n) * int64(total) / int64(read))
	want := min(max(est+est/16, n+1), 2*n+1)
	c.Nodes = append(make([]Node, 0, want), c.Nodes...)
}

// Name chunks start at minNameChunk bytes and double up to
// maxNameChunk, so a small netlist's names take one or two small
// allocations and a large one's an allocation per maxNameChunk bytes.
const (
	minNameChunk = 256
	maxNameChunk = 64 << 10
)

// nameChunks copies node names into append-only chunks, one allocation
// per chunk instead of one per name. A chunk is a strings.Builder that
// is never written past its capacity, so the bytes under every string
// taken from it stay put.
type nameChunks struct {
	b    strings.Builder
	size int // capacity of the current chunk
}

// copy returns tok as a string backed by the current chunk, starting
// a new chunk when tok does not fit in what is left.
func (nc *nameChunks) copy(tok []byte) string {
	if nc.b.Cap()-nc.b.Len() < len(tok) {
		nc.size = min(max(2*nc.size, minNameChunk), maxNameChunk)
		nc.b = strings.Builder{}
		nc.b.Grow(max(nc.size, len(tok)))
	}
	start := nc.b.Len()
	nc.b.Write(tok)
	return nc.b.String()[start:]
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
