package netlist

import (
	"fmt"
	"math"
	"math/rand"
)

// GenSpec parameterizes the deterministic synthetic benchmark
// generator. The generator stands in for the MCNC circuits of the
// paper's Table 1 (apex1, apex2, k2), which are not distributable with
// this module: it produces a mapped combinational DAG with the same
// cell count, a bounded fan-in mix typical of technology-mapped
// netlists, and a controlled logic depth. The sizing formulation only
// observes circuit structure and loads, so a structurally comparable
// DAG exercises the identical optimization problem at the same scale.
type GenSpec struct {
	Name     string
	Gates    int   // number of gate instances (cells)
	Inputs   int   // number of primary inputs
	Outputs  int   // minimum number of primary outputs
	Depth    int   // target logic depth in gates
	MaxFanin int   // maximum gate fan-in, 2..4
	Seed     int64 // RNG seed; equal specs generate identical circuits
	// Cones is the number of mostly-disjoint logic cones the circuit
	// is organized into; 0 picks a default from the output count.
	// Real multi-output netlists consist of output cones that share
	// only part of their logic, which bounds the path correlation the
	// paper's independence assumption ignores; a fully mixed random
	// DAG would be far more correlated than any real circuit.
	Cones int
}

// Validate checks the spec for feasibility.
func (s GenSpec) Validate() error {
	if s.Gates < 1 {
		return fmt.Errorf("netlist: spec needs at least one gate, got %d", s.Gates)
	}
	if s.Inputs < 1 {
		return fmt.Errorf("netlist: spec needs at least one input, got %d", s.Inputs)
	}
	if s.Depth < 1 || s.Depth > s.Gates {
		return fmt.Errorf("netlist: depth %d infeasible for %d gates", s.Depth, s.Gates)
	}
	if s.MaxFanin < 1 || s.MaxFanin > 4 {
		return fmt.Errorf("netlist: max fanin %d out of range [1,4]", s.MaxFanin)
	}
	if s.Outputs < 1 {
		return fmt.Errorf("netlist: spec needs at least one output, got %d", s.Outputs)
	}
	return nil
}

// typeByFanin maps a fan-in count to alternating gate types, giving
// the generated netlists a mixed library population.
var typeByFanin = [5][]string{
	nil,
	{"inv", "buf"},
	{"nand2", "nor2"},
	{"nand3", "nor3"},
	{"nand4", "nor4"},
}

// Generate builds a synthetic circuit from the spec. Generation is
// fully deterministic in the spec (including Seed).
//
// Construction is levelized: gates are distributed over Depth levels
// with a mid-heavy profile, each gate draws its first fanin from the
// previous level (which makes the level assignment exact and the
// depth hit the target), and the remaining fanins from earlier levels
// with a recency bias. Every primary input is forced to drive at
// least one first-level gate pin; gates left without fanout are
// marked as primary outputs (topping up to at least spec.Outputs).
func Generate(spec GenSpec) (*Circuit, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	c := newSized(spec.Name, spec.Inputs+spec.Gates)
	// The generator holds every node id and its names ("i<k>",
	// "g<k>") are distinct by construction, so nodes are added by id:
	// no per-gate fanin or name list, no name lookups, names copied
	// into shared chunks.
	var names nameChunks
	var nameBuf [21]byte

	inputs := make([]NodeID, spec.Inputs)
	for i := range inputs {
		name := names.copy(appendItoa(append(nameBuf[:0], 'i'), i))
		inputs[i] = c.addNew(Node{Name: name, Kind: KindInput})
	}

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

	// levelNodes[0] holds the primary inputs; levelNodes[l] for l >= 1
	// holds the gates at logic level l. coneNodes additionally splits
	// each level into cones; fanin selection strongly prefers the
	// gate's own cone.
	levelNodes := make([][]NodeID, spec.Depth+1)
	levelNodes[0] = inputs
	coneNodes := make([][][]NodeID, spec.Depth+1)
	for l := range coneNodes {
		coneNodes[l] = make([][]NodeID, nCones)
	}
	for i, in := range inputs {
		coneNodes[0][i%nCones] = append(coneNodes[0][i%nCones], in)
	}

	// fanoutCount tracks how many pins each node already drives.
	// Fanin selection is fanout-balanced: among a few random
	// candidates the least-loaded node wins. This avoids hot nodes,
	// keeps pairwise path correlation low (matching the modest
	// reconvergence of real mapped netlists, which is what lets the
	// paper's independence approximation hold), and leaves almost no
	// fanout-free gates behind.
	fanoutCount := make([]int, spec.Gates+spec.Inputs)

	// Pending round-robin of unused PIs so each one gets a pin.
	unused := append([]NodeID(nil), inputs...)
	rng.Shuffle(len(unused), func(i, j int) { unused[i], unused[j] = unused[j], unused[i] })

	gateIdx := 0
	for lvl := 1; lvl <= spec.Depth; lvl++ {
		width := sizes[lvl-1]
		for k := 0; k < width; k++ {
			cone := k * nCones / width
			pick := func() NodeID {
				return pickEarlier(rng, levelNodes, coneNodes, lvl, cone, fanoutCount)
			}
			nf := drawFanin(rng, spec.MaxFanin)
			var faninBuf [4]NodeID
			fanin := faninBuf[:0]
			// First pin: previous level, establishing the level.
			fanin = append(fanin, pickLevel(rng, levelNodes[lvl-1], coneNodes[lvl-1][cone], fanoutCount))
			// First-level gates soak up unused inputs.
			if lvl == 1 && len(unused) > 0 {
				fanin[0] = unused[len(unused)-1]
				unused = unused[:len(unused)-1]
			}
			for len(fanin) < nf {
				var src NodeID
				if lvl == 1 && len(unused) > 0 {
					src = unused[len(unused)-1]
					unused = unused[:len(unused)-1]
				} else {
					src = pick()
				}
				if containsID(fanin, src) {
					// Retry once, then accept a smaller fan-in
					// rather than loop.
					src = pick()
					if containsID(fanin, src) {
						break
					}
				}
				fanin = append(fanin, src)
			}
			for _, f := range fanin {
				fanoutCount[f]++
			}
			typ := typeByFanin[len(fanin)][rng.Intn(len(typeByFanin[len(fanin)]))]
			ids := c.faninSlots(len(fanin))
			copy(ids, fanin)
			name := names.copy(appendItoa(append(nameBuf[:0], 'g'), gateIdx))
			id := c.addNew(Node{Name: name, Kind: KindGate, Type: typ, Fanin: ids})
			gateIdx++
			levelNodes[lvl] = append(levelNodes[lvl], id)
			coneNodes[lvl][cone] = append(coneNodes[lvl][cone], id)
		}
	}

	// Any input still unused drives an extra pin of a random
	// first-level gate; structural rewiring is simpler than leaving
	// floating inputs.
	for _, in := range unused {
		g := levelNodes[1][rng.Intn(len(levelNodes[1]))]
		nd := &c.Nodes[g]
		if !containsID(nd.Fanin, in) && len(nd.Fanin) < 4 {
			nd.Fanin = append(nd.Fanin, in)
			nd.Type = typeByFanin[len(nd.Fanin)][0]
		}
	}

	// Outputs: every fanout-free gate in id order, topped up from the
	// deepest levels to reach the requested count. fanoutCount counts
	// every gate pin a gate drives (the rewiring above adds input
	// pins only), so a gate with count 0 drives nothing.
	for i := spec.Inputs; i < len(c.Nodes); i++ {
		if fanoutCount[i] == 0 {
			if err := c.markOutput(NodeID(i)); err != nil {
				return nil, err
			}
		}
	}
	for lvl := spec.Depth; lvl >= 1 && len(c.Outputs) < spec.Outputs; lvl-- {
		for _, id := range levelNodes[lvl] {
			if len(c.Outputs) >= spec.Outputs {
				break
			}
			if !c.isOutput(id) {
				if err := c.markOutput(id); err != nil {
					return nil, err
				}
			}
		}
	}
	// Every node went through addNew, so the name index is
	// consistent by construction.
	if err := c.validate(false); err != nil {
		return nil, err
	}
	return c, nil
}

// levelSizes splits n gates over d levels with a mid-heavy profile
// (levels near 40% of the depth are widest, the last level is narrow),
// resembling the shape of technology-mapped multi-level logic.
func levelSizes(n, d int) []int {
	if d == 1 {
		return []int{n}
	}
	weights := make([]float64, d)
	var sum float64
	for i := range weights {
		x := float64(i) / float64(d-1) // 0..1 across levels
		// Asymmetric bump peaking at x = 0.4.
		dx := x - 0.4
		weights[i] = 0.25 + math.Exp(-dx*dx/0.18)
		sum += weights[i]
	}
	sizes := make([]int, d)
	assigned := 0
	for i := range sizes {
		sizes[i] = int(float64(n) * weights[i] / sum)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		assigned += sizes[i]
	}
	// Distribute the rounding remainder (positive or negative) over
	// the widest levels while keeping every level at least 1.
	for assigned != n {
		for i := range sizes {
			if assigned == n {
				break
			}
			if assigned < n {
				sizes[i]++
				assigned++
			} else if sizes[i] > 1 {
				sizes[i]--
				assigned--
			}
		}
	}
	return sizes
}

// drawFanin samples a gate fan-in with a mapped-netlist-like mix:
// mostly 2-input cells, some inverters, fewer 3- and 4-input cells.
func drawFanin(rng *rand.Rand, max int) int {
	r := rng.Float64()
	switch {
	case r < 0.15 || max == 1:
		return 1
	case r < 0.70 || max == 2:
		return 2
	case r < 0.92 || max == 3:
		return 3
	default:
		return 4
	}
}

// pickEarlier draws a node from a level strictly below lvl with a
// strong bias toward the immediately preceding levels (short wires)
// and toward the gate's own cone (bounded cross-cone sharing).
func pickEarlier(rng *rand.Rand, levels [][]NodeID, cones [][][]NodeID, lvl, cone int, fanout []int) NodeID {
	src := lvl - 1
	for src > 0 && rng.Float64() < 0.35 {
		src--
	}
	return pickLevel(rng, levels[src], cones[src][cone], fanout)
}

// pickLevel draws from the gate's own cone with high probability,
// falling back to the whole level; within the pool the draw is
// fanout-balanced (least-loaded of three candidates), which avoids
// hot nodes and leaves almost no fanout-free gates behind.
func pickLevel(rng *rand.Rand, level, cone []NodeID, fanout []int) NodeID {
	pool := level
	if len(cone) > 0 && rng.Float64() < 0.88 {
		pool = cone
	}
	best := pool[rng.Intn(len(pool))]
	for k := 0; k < 2; k++ {
		cand := pool[rng.Intn(len(pool))]
		if fanout[cand] < fanout[best] {
			best = cand
		}
	}
	return best
}

func containsID(ids []NodeID, id NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Apex1Like returns a synthetic circuit matching the scale of MCNC
// apex1 as reported in the paper's Table 1 (982 cells).
func Apex1Like() *Circuit {
	c, err := Generate(GenSpec{
		Name: "apex1-like", Gates: 982, Inputs: 45, Outputs: 45,
		Depth: 18, MaxFanin: 4, Seed: 9821,
	})
	if err != nil {
		panic(err)
	}
	return c
}

// Apex2Like returns a synthetic circuit matching the scale of MCNC
// apex2 as reported in the paper's Table 1 (117 cells).
func Apex2Like() *Circuit {
	c, err := Generate(GenSpec{
		Name: "apex2-like", Gates: 117, Inputs: 39, Outputs: 3,
		Depth: 10, MaxFanin: 4, Seed: 1172,
	})
	if err != nil {
		panic(err)
	}
	return c
}

// K2Like returns a synthetic circuit matching the scale of MCNC k2 as
// reported in the paper's Table 1 (1692 cells).
func K2Like() *Circuit {
	c, err := Generate(GenSpec{
		Name: "k2-like", Gates: 1692, Inputs: 45, Outputs: 45,
		Depth: 22, MaxFanin: 4, Seed: 16923,
	})
	if err != nil {
		panic(err)
	}
	return c
}
