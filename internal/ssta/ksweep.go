package ssta

import (
	"fmt"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// DetBatch is a K-lane deterministic structure-of-arrays sweep where
// every lane is a corner at a different risk level k, all sharing one
// speed-factor assignment. The expensive per-gate work — the fanout
// load scan and the sigma model behind GateMV — runs once per node
// visit and is amortized across all lanes (sweepNode), which is where
// the batched corner sweep earns its speedup. The slab layout is the shared
// lane-stride contract slab[int(id)*K + lane]; lane l is
// bit-identical to the scalar cornerSweep at ks[l] by construction.
type DetBatch struct {
	m       *delay.Model
	ks      []float64
	workers int
	arr     []float64 // n*K lane-strided arrival times
	tmax    []float64
}

// NewDetBatch builds a corner-sweep engine with one lane per risk
// level in ks (copied; non-finite levels are rejected).
func NewDetBatch(m *delay.Model, ks []float64, workers int) *DetBatch {
	if len(ks) == 0 {
		panic("ssta: NewDetBatch needs at least one risk level")
	}
	for _, k := range ks {
		checkRiskFactor(k, "NewDetBatch")
	}
	n := len(m.G.C.Nodes)
	b := &DetBatch{
		m:       m,
		ks:      append([]float64(nil), ks...),
		workers: resolveWorkers(workers),
		arr:     make([]float64, n*len(ks)),
		tmax:    make([]float64, len(ks)),
	}
	return b
}

// sweepNode fills node id's arrival lanes under speed factors S,
// writing only id-owned slab spans so a level bucket can run in
// parallel. Per lane the arithmetic matches cornerSweep exactly: the
// zero clamp applies to gate delays and input arrival quantiles
// alike, and the fanin max folds in pin order. The loops run
// fanin-outer / lane-inner with the pin offset hoisted, so every
// inner loop walks two contiguous K-spans — the layout the batching
// exists for — and the gate's delay distribution is computed once for
// all lanes.
func (b *DetBatch) sweepNode(id netlist.NodeID, S []float64) {
	K := len(b.ks)
	m := b.m
	nd := &m.G.C.Nodes[id]
	base := int(id) * K
	slot := b.arr[base : base+K]
	if nd.Kind == netlist.KindInput {
		a := m.Arrival[id]
		sigma := a.Sigma()
		for l, k := range b.ks {
			t := a.Mu + k*sigma
			if t < 0 {
				t = 0
			}
			slot[l] = t
		}
		return
	}
	fanin := nd.Fanin
	mv := m.GateMV(id, S)
	mu, sigma := mv.Mu, mv.Sigma()
	arr, ks := b.arr, b.ks
	lane := func(p int) []float64 {
		base := int(fanin[p]) * K
		return arr[base : base+K]
	}
	// Fanin-count-specialized inner loops: every operand is a length-K
	// subslice indexed by l < K, so the compiler drops the bounds
	// checks, the fold accumulator stays in a register across pins,
	// and each lane costs one store. Per lane the operation order is
	// cornerSweep's exactly: fold in pin order, then u + d.
	switch len(fanin) {
	case 1:
		a0, o0 := lane(0), m.PinOff(id, 0)
		for l := 0; l < K; l++ {
			d := mu + ks[l]*sigma
			if d < 0 {
				d = 0
			}
			slot[l] = (a0[l] + o0) + d
		}
	case 2:
		a0, o0 := lane(0), m.PinOff(id, 0)
		a1, o1 := lane(1), m.PinOff(id, 1)
		for l := 0; l < K; l++ {
			u := a0[l] + o0
			if a := a1[l] + o1; a > u {
				u = a
			}
			d := mu + ks[l]*sigma
			if d < 0 {
				d = 0
			}
			slot[l] = u + d
		}
	case 3:
		a0, o0 := lane(0), m.PinOff(id, 0)
		a1, o1 := lane(1), m.PinOff(id, 1)
		a2, o2 := lane(2), m.PinOff(id, 2)
		for l := 0; l < K; l++ {
			u := a0[l] + o0
			if a := a1[l] + o1; a > u {
				u = a
			}
			if a := a2[l] + o2; a > u {
				u = a
			}
			d := mu + ks[l]*sigma
			if d < 0 {
				d = 0
			}
			slot[l] = u + d
		}
	case 4:
		a0, o0 := lane(0), m.PinOff(id, 0)
		a1, o1 := lane(1), m.PinOff(id, 1)
		a2, o2 := lane(2), m.PinOff(id, 2)
		a3, o3 := lane(3), m.PinOff(id, 3)
		for l := 0; l < K; l++ {
			u := a0[l] + o0
			if a := a1[l] + o1; a > u {
				u = a
			}
			if a := a2[l] + o2; a > u {
				u = a
			}
			if a := a3[l] + o3; a > u {
				u = a
			}
			d := mu + ks[l]*sigma
			if d < 0 {
				d = 0
			}
			slot[l] = u + d
		}
	default:
		for l := 0; l < K; l++ {
			u := arr[int(fanin[0])*K+l] + m.PinOff(id, 0)
			for p := 1; p < len(fanin); p++ {
				if a := arr[int(fanin[p])*K+l] + m.PinOff(id, p); a > u {
					u = a
				}
			}
			d := mu + ks[l]*sigma
			if d < 0 {
				d = 0
			}
			slot[l] = u + d
		}
	}
}

// Sweep runs the batched deterministic sweep under S and returns the
// per-lane circuit delay (engine-owned, overwritten by the next
// Sweep). Allocation-free when warm with workers == 1; bit-identical
// for every worker count.
func (b *DetBatch) Sweep(S []float64) []float64 {
	g := b.m.G
	if len(S) != len(g.C.Nodes) {
		panic(fmt.Sprintf("ssta: DetBatch.Sweep got %d sizes for %d nodes",
			len(S), len(g.C.Nodes)))
	}
	if b.workers == 1 {
		for _, id := range g.Topo {
			b.sweepNode(id, S)
		}
	} else {
		for _, bucket := range g.Levels {
			bucket := bucket
			runLevel(b.workers, len(bucket), func(i int) {
				b.sweepNode(bucket[i], S)
			})
		}
	}
	K := len(b.ks)
	for l := 0; l < K; l++ {
		var tmax float64
		for i, o := range g.C.Outputs {
			if a := b.arr[int(o)*K+l]; i == 0 || a > tmax {
				tmax = a
			}
		}
		b.tmax[l] = tmax
	}
	return b.tmax
}

// Ks returns the engine's risk levels (engine-owned; do not mutate).
func (b *DetBatch) Ks() []float64 { return b.ks }

// KSweep evaluates the deterministic corner sweep at every risk level
// in ks in one batched traversal and returns the per-lane circuit
// delays — the one-shot form of DetBatch for callers without an
// evaluation loop. Non-finite risk levels panic; lane l is
// bit-identical to a scalar corner sweep at ks[l].
func KSweep(m *delay.Model, S []float64, ks []float64, workers int) []float64 {
	return append([]float64(nil), NewDetBatch(m, ks, workers).Sweep(S)...)
}
