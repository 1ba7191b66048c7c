package delay

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/stats"
)

// Model binds a compiled circuit to a library, flattening the per-gate
// electrical parameters into arrays indexed by netlist.NodeID. It is
// the single source of delay arithmetic for SSTA, Monte Carlo and both
// sizing formulations.
type Model struct {
	G *netlist.Graph

	// Per-node parameters; input nodes hold zeros.
	TInt  []float64 // internal delay t_int
	CIn   []float64 // input pin capacitance of this gate at S = 1
	CLoad []float64 // fixed wiring (+ output pad) capacitance
	Coef  float64   // the constant c of eq 14

	// PinOffset[id] holds the per-pin additive delays of eq 1 for
	// gate id, or nil when every pin is equal.
	PinOffset [][]float64

	// Limit bounds the speed factor: 1 <= S <= Limit.
	Limit float64

	// Sigma maps gate mean delay to delay variance.
	Sigma SigmaModel

	// Arrival holds the arrival-time distribution of each primary
	// input (indexed by NodeID; gate entries are ignored). The zero
	// value — all inputs arrive at t = 0 deterministically — matches
	// the paper's experiments.
	Arrival []stats.MV
}

// Bind flattens the circuit onto the library. Every gate type must
// exist in the library with a matching fan-in count.
func Bind(g *netlist.Graph, lib *Library) (*Model, error) {
	n := len(g.C.Nodes)
	m := &Model{
		G:         g,
		TInt:      make([]float64, n),
		CIn:       make([]float64, n),
		CLoad:     make([]float64, n),
		Coef:      lib.Coef,
		Limit:     3.0,
		Sigma:     Proportional{K: 0.25},
		Arrival:   make([]stats.MV, n),
		PinOffset: make([][]float64, n),
	}
	for i, nd := range g.C.Nodes {
		if nd.Kind != netlist.KindGate {
			continue
		}
		ct, ok := lib.Cell(nd.Type)
		if !ok {
			return nil, fmt.Errorf("delay: gate %q has unknown type %q", nd.Name, nd.Type)
		}
		if ct.Fanin != len(nd.Fanin) {
			return nil, fmt.Errorf("delay: gate %q type %q wants %d inputs, has %d",
				nd.Name, nd.Type, ct.Fanin, len(nd.Fanin))
		}
		if ct.PinOffsets != nil && len(ct.PinOffsets) != ct.Fanin {
			return nil, fmt.Errorf("delay: cell %q has %d pin offsets for %d pins",
				ct.Name, len(ct.PinOffsets), ct.Fanin)
		}
		id := netlist.NodeID(i)
		m.TInt[id] = ct.TInt
		m.CIn[id] = ct.CIn
		m.PinOffset[id] = ct.PinOffsets
		m.CLoad[id] = lib.WireBase + lib.WirePerFanout*float64(len(g.Fanout[id]))
		if g.IsOutput(id) {
			m.CLoad[id] += lib.OutputLoad
		}
	}
	return m, nil
}

// MustBind is Bind for known-good circuit/library pairs; it panics on
// error and is intended for built-ins and tests.
func MustBind(g *netlist.Graph, lib *Library) *Model {
	m, err := Bind(g, lib)
	if err != nil {
		panic(err)
	}
	return m
}

// Load returns the capacitive load seen by gate id under speed factors
// S: C_load + sum over fanout pins of C_in * S_fanout.
func (m *Model) Load(id netlist.NodeID, S []float64) float64 {
	load := m.CLoad[id]
	for _, f := range m.G.Fanout[id] {
		load += m.CIn[f] * S[f]
	}
	return load
}

// GateMu returns the mean gate delay of eq 14 for gate id under the
// speed-factor assignment S.
func (m *Model) GateMu(id netlist.NodeID, S []float64) float64 {
	return m.TInt[id] + m.Coef*m.Load(id, S)/S[id]
}

// GateMV returns the gate delay distribution (mean and variance) of
// gate id under S, applying the sigma model.
func (m *Model) GateMV(id netlist.NodeID, S []float64) stats.MV {
	mu := m.GateMu(id, S)
	return stats.MV{Mu: mu, Var: m.Sigma.Var(mu)}
}

// GateMVLoaded is GateMV with the capacitive load supplied by the
// caller. Load is a pure function of the fanout speed factors, so an
// engine that caches loads and invalidates them under the SDependents
// rule passes bitwise the value Load would recompute — the delay
// expressions here are exactly GateMu/GateMV's.
func (m *Model) GateMVLoaded(id netlist.NodeID, S []float64, load float64) stats.MV {
	mu := m.TInt[id] + m.Coef*load/S[id]
	return stats.MV{Mu: mu, Var: m.Sigma.Var(mu)}
}

// GateMuGrad accumulates scale * d(GateMu(id))/dS into grad. The mean
// delay of gate id depends on its own speed factor (through 1/S) and
// on the speed factors of its fanout gates (through the load):
//
//	d mu / d S_id = -c * load / S_id^2
//	d mu / d S_f  = +c * C_in,f / S_id   for each fanout pin f
//
// A gate driving the same fanout gate through k pins accumulates the
// pin term k times, matching the load model.
func (m *Model) GateMuGrad(id netlist.NodeID, S []float64, scale float64, grad []float64) {
	m.GateMuGradLoaded(id, S, m.Load(id, S), scale, m.G.Fanout[id], grad)
}

// GateMuGradLoaded is GateMuGrad with a caller-supplied load (see
// GateMVLoaded for the caching contract) and fanout list, which must
// equal G.Fanout[id] element by element: an engine walking a compiled
// sweep schedule passes its own contiguous copy instead of chasing the
// graph's per-node slice header.
func (m *Model) GateMuGradLoaded(id netlist.NodeID, S []float64, load, scale float64, fanout []netlist.NodeID, grad []float64) {
	grad[id] += scale * -m.Coef * load / (S[id] * S[id])
	// The pin factor is hoisted out of the fanout loop — one divide
	// per gate instead of per pin.
	pin := scale * m.Coef / S[id]
	for _, f := range fanout {
		grad[f] += pin * m.CIn[f]
	}
}

// SDependents calls visit for every gate whose mean delay depends on
// the speed factor S[id]: gate id itself (through the 1/S term and
// its own load) and each of id's fanin driver gates — their load term
// c * sum(C_in * S) includes C_in[id]*S[id]. Input fanins are
// skipped, since inputs carry no delay. This is the dirty rule of the
// incremental SSTA engine: after S[id] changes, exactly these gates
// need their delay re-evaluated. Visit order is deterministic: id
// first, then fanin drivers in pin order (a driver wired to several
// pins is visited once per pin; callers dedupe).
func (m *Model) SDependents(id netlist.NodeID, visit func(netlist.NodeID)) {
	visit(id)
	for _, f := range m.G.C.Nodes[id].Fanin {
		if m.G.C.Nodes[f].Kind == netlist.KindGate {
			visit(f)
		}
	}
}

// PinOff returns the additive delay of gate id's pin k (0 when the
// cell has uniform pins).
func (m *Model) PinOff(id netlist.NodeID, k int) float64 {
	if off := m.PinOffset[id]; off != nil {
		return off[k]
	}
	return 0
}

// UnitSizes returns an all-ones speed-factor vector sized for the
// model's circuit (indexed by NodeID; input entries are 1 and unused).
func (m *Model) UnitSizes() []float64 {
	S := make([]float64, len(m.G.C.Nodes))
	for i := range S {
		S[i] = 1
	}
	return S
}

// ClampSizes clips every gate's speed factor into [1, Limit] in place
// and returns S.
func (m *Model) ClampSizes(S []float64) []float64 {
	for _, id := range m.G.C.GateIDs() {
		if S[id] < 1 {
			S[id] = 1
		}
		if S[id] > m.Limit {
			S[id] = m.Limit
		}
	}
	return S
}

// SumSizes returns the paper's area measure: the sum of gate speed
// factors.
func (m *Model) SumSizes(S []float64) float64 {
	var sum float64
	for _, id := range m.G.C.GateIDs() {
		sum += S[id]
	}
	return sum
}
