package netlist

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
)

// streamWindow is the lookback horizon of the streaming generator:
// fanins are drawn from at most this many preceding levels, so only
// that window of node records is ever held in memory.
const streamWindow = 8

// Gen100kSpec is the canonical 100k-gate benchmark spec used by the
// hierarchical-timing benchmarks (cmd/circuitgen -preset gen100k).
func Gen100kSpec() GenSpec {
	return GenSpec{
		Name: "gen100k", Gates: 100_000, Inputs: 512, Outputs: 64,
		Depth: 96, MaxFanin: 4, Seed: 100_001,
	}
}

// Gen1MSpec is the canonical million-gate benchmark spec
// (cmd/circuitgen -preset gen1m).
func Gen1MSpec() GenSpec {
	return GenSpec{
		Name: "gen1m", Gates: 1_000_000, Inputs: 2048, Outputs: 256,
		Depth: 160, MaxFanin: 4, Seed: 1_000_003,
	}
}

// streamNode is the windowed record of an emitted node: its name, how
// many pins it drives so far (for fanout balancing and dangling
// detection; -1 once marked as an output).
type streamNode struct {
	name   string
	fanout int
}

// GenerateStream emits a synthetic circuit in .ckt format directly to
// w without ever materializing it: memory is O(streamWindow * level
// width) — the lookback window of node records — independent of the
// total gate count, which is what makes the gen100k/gen1m presets
// viable on small machines.
//
// The construction mirrors Generate (levelized, mid-heavy width
// profile, cone-affine fanout-balanced fanin selection, dangling
// gates become primary outputs) but bounds the fanin lookback to
// streamWindow levels so retired levels can be dropped; the emitted
// netlist is therefore a structural sibling of Generate's, not
// byte-equivalent to it. Like Generate, the output is fully
// deterministic in the spec (including Seed): equal specs produce
// byte-identical files on every run and platform.
func GenerateStream(w io.Writer, spec GenSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("circuit ")
	bw.WriteString(spec.Name)
	bw.WriteByte('\n')

	// Emit the inputs 16 per line (WriteCKT's layout) and seed the
	// level-0 window records.
	level0 := make([]streamNode, spec.Inputs)
	for i := range level0 {
		level0[i] = streamNode{name: inputName(i)}
		if i%16 == 0 {
			if i > 0 {
				bw.WriteByte('\n')
			}
			bw.WriteString("input")
		}
		bw.WriteByte(' ')
		bw.WriteString(level0[i].name)
	}
	bw.WriteByte('\n')

	sizes := levelSizes(spec.Gates, spec.Depth)
	nCones := spec.Cones
	if nCones <= 0 {
		nCones = spec.Outputs
		if lim := spec.Inputs / 3; nCones > lim {
			nCones = lim
		}
		if nCones < 1 {
			nCones = 1
		}
		if nCones > 12 {
			nCones = 12
		}
	}

	// levels[l] holds the window records of level l, nil once retired.
	// Cones are contiguous index ranges of a level: cone c of a
	// width-W level spans [c*W/nCones, (c+1)*W/nCones).
	levels := make([][]streamNode, spec.Depth+1)
	levels[0] = level0
	pickIn := func(pool []streamNode) *streamNode {
		best := &pool[rng.Intn(len(pool))]
		for k := 0; k < 2; k++ {
			cand := &pool[rng.Intn(len(pool))]
			if cand.fanout < best.fanout {
				best = cand
			}
		}
		return best
	}
	pickLevel := func(lvl, cone int) *streamNode {
		nodes := levels[lvl]
		lo, hi := cone*len(nodes)/nCones, (cone+1)*len(nodes)/nCones
		if hi > lo && rng.Float64() < 0.88 {
			return pickIn(nodes[lo:hi])
		}
		return pickIn(nodes)
	}
	lowest := func(lvl int) int {
		if lo := lvl - streamWindow; lo > 0 {
			return lo
		}
		return 0
	}
	pickEarlier := func(lvl, cone int) *streamNode {
		src := lvl - 1
		for src > lowest(lvl) && rng.Float64() < 0.35 {
			src--
		}
		return pickLevel(src, cone)
	}

	// Unused primary inputs are soaked up as extra (non-first) pins
	// until drained; a level-0 extra pin never changes the consuming
	// gate's level, so soaking is safe at any level.
	unused := make([]int, spec.Inputs)
	for i := range unused {
		unused[i] = i
	}
	rng.Shuffle(len(unused), func(i, j int) { unused[i], unused[j] = unused[j], unused[i] })

	// outputs accumulates dangling-gate names as levels retire; its
	// growth is bounded by the (small) dangling count, not the gate
	// count.
	var outputs []string
	retire := func(lvl int) {
		if lvl >= 1 {
			// A retired gate is out of every future window: if nothing
			// drives off it yet, nothing ever will — it is dangling
			// and becomes a primary output, exactly like Generate's
			// DanglingGates pass.
			for i := range levels[lvl] {
				if levels[lvl][i].fanout == 0 {
					outputs = append(outputs, levels[lvl][i].name)
				}
			}
		}
		levels[lvl] = nil
	}

	faninNames := make([]string, 0, 4)
	contains := func(name string) bool {
		for _, f := range faninNames {
			if f == name {
				return true
			}
		}
		return false
	}
	gateIdx := 0
	for lvl := 1; lvl <= spec.Depth; lvl++ {
		width := sizes[lvl-1]
		levels[lvl] = make([]streamNode, 0, width)
		for k := 0; k < width; k++ {
			cone := k * nCones / width
			nf := drawFanin(rng, spec.MaxFanin)
			faninNames = faninNames[:0]
			// First pin: previous level, establishing the level.
			first := pickLevel(lvl-1, cone)
			first.fanout++
			faninNames = append(faninNames, first.name)
			for len(faninNames) < nf {
				if len(unused) > 0 {
					in := unused[len(unused)-1]
					if name := inputName(in); !contains(name) {
						unused = unused[:len(unused)-1]
						if levels[0] != nil { // else retired: name is derivable
							levels[0][in].fanout++
						}
						faninNames = append(faninNames, name)
						continue
					}
				}
				src := pickEarlier(lvl, cone)
				if contains(src.name) {
					src = pickEarlier(lvl, cone)
					if contains(src.name) {
						break // accept a smaller fan-in over looping
					}
				}
				src.fanout++
				faninNames = append(faninNames, src.name)
			}
			typ := typeByFanin[len(faninNames)][rng.Intn(len(typeByFanin[len(faninNames)]))]
			name := gateName(gateIdx)
			bw.WriteString("gate ")
			bw.WriteString(name)
			bw.WriteByte(' ')
			bw.WriteString(typ)
			for _, f := range faninNames {
				bw.WriteByte(' ')
				bw.WriteString(f)
			}
			bw.WriteByte('\n')
			levels[lvl] = append(levels[lvl], streamNode{name: name})
			gateIdx++
		}
		if lvl-streamWindow >= 0 {
			retire(lvl - streamWindow)
		}
	}
	if len(unused) > 0 {
		return fmt.Errorf("netlist: %d inputs exceed the pin capacity of spec %q", len(unused), spec.Name)
	}

	// Mark the dangling gates of the levels still in the window, then
	// top up from the deepest levels until at least spec.Outputs names
	// are marked (spec.Outputs is a minimum, as in Generate).
	for lvl := lowest(spec.Depth + 1); lvl <= spec.Depth; lvl++ {
		for i := range levels[lvl] {
			if levels[lvl][i].fanout == 0 {
				outputs = append(outputs, levels[lvl][i].name)
				levels[lvl][i].fanout = -1
			}
		}
	}
	for lvl := spec.Depth; lvl >= 1 && len(outputs) < spec.Outputs; lvl-- {
		if levels[lvl] == nil {
			break // older levels retired; their danglings are marked
		}
		for i := range levels[lvl] {
			if len(outputs) >= spec.Outputs {
				break
			}
			if levels[lvl][i].fanout != -1 {
				outputs = append(outputs, levels[lvl][i].name)
				levels[lvl][i].fanout = -1
			}
		}
	}
	for at := 0; at < len(outputs); at += 16 {
		hi := at + 16
		if hi > len(outputs) {
			hi = len(outputs)
		}
		bw.WriteString("output")
		for _, name := range outputs[at:hi] {
			bw.WriteByte(' ')
			bw.WriteString(name)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
