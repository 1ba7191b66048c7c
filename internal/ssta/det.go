package ssta

import (
	"repro/internal/delay"
	"repro/internal/netlist"
)

// DetResult holds a deterministic (mean-only) timing sweep, the
// traditional static analysis the paper's statistical model replaces.
type DetResult struct {
	// Arrival[id] is the deterministic arrival time at node id.
	Arrival []float64
	// Tmax is the worst arrival over the primary outputs.
	Tmax float64
	// CriticalOutput is the output node realizing Tmax.
	CriticalOutput netlist.NodeID
}

// DetAnalyze runs a deterministic timing sweep using the mean gate
// delays of the model (sigma ignored). Note that the statistical mean
// circuit delay is always at least the deterministic one, because the
// stochastic max inflates means at every path merge — the effect the
// paper's references [1], [2] emphasize. Unlike the corner sweeps
// (KSweep), it takes the input arrival means as they are: a negative
// mean arrival is not clamped at zero.
func DetAnalyze(m *delay.Model, S []float64) *DetResult {
	g := m.G
	n := len(g.C.Nodes)
	add := make([]float64, n)
	for id := range add {
		if g.C.Nodes[id].Kind == netlist.KindInput {
			add[id] = m.Arrival[id].Mu
		} else {
			add[id] = m.GateMu(netlist.NodeID(id), S)
		}
	}
	r := &DetResult{Arrival: make([]float64, n)}
	m.MaxPlus(r.Arrival, add, 1, 1)
	r.Tmax, r.CriticalOutput = m.OutputMax(r.Arrival, 1, 0)
	return r
}

// CriticalPath walks back from the critical output picking the latest
// fanin at every gate, returning the path from a primary input to the
// output (inclusive).
func (r *DetResult) CriticalPath(m *delay.Model) []netlist.NodeID {
	g := m.G
	var rev []netlist.NodeID
	id := r.CriticalOutput
	for {
		rev = append(rev, id)
		nd := &g.C.Nodes[id]
		if nd.Kind == netlist.KindInput {
			break
		}
		best := nd.Fanin[0]
		bestA := r.Arrival[best] + m.PinOff(id, 0)
		for k, f := range nd.Fanin[1:] {
			if a := r.Arrival[f] + m.PinOff(id, k+1); a > bestA {
				best, bestA = f, a
			}
		}
		id = best
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
