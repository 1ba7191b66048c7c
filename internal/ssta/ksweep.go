package ssta

import (
	"fmt"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// KSweep evaluates the deterministic corner sweep at every risk level
// in ks and returns the per-lane circuit delays. Every lane is a
// corner at a different risk level k, all sharing one speed-factor
// assignment: lane l sets each gate delay and each primary-input
// arrival to mu + ks[l]*sigma, and the lanes run as one K-lane
// delay.MaxPlus fold, so each gate's delay distribution is computed
// once for all lanes. Lane l is bit-identical to a scalar corner sweep
// at ks[l]. Non-finite risk levels panic.
//
// The corner convention clamps every physical time at zero — gate
// delays and primary-input arrival quantiles alike: a best-case
// corner (negative k) may not start an event before t = 0 any more
// than a gate may anticipate its inputs, so deep-negative input skews
// cannot manufacture negative circuit delays.
func KSweep(m *delay.Model, S []float64, ks []float64) []float64 {
	for _, k := range ks {
		checkRiskFactor(k, "KSweep")
	}
	g := m.G
	n := len(g.C.Nodes)
	if len(S) != n {
		panic(fmt.Sprintf("ssta: KSweep got %d sizes for %d nodes", len(S), n))
	}
	K := len(ks)
	add := make([]float64, n*K)
	for id := range n {
		var mu, sigma float64
		if g.C.Nodes[id].Kind == netlist.KindInput {
			a := m.Arrival[id]
			mu, sigma = a.Mu, a.Sigma()
		} else {
			mv := m.GateMV(netlist.NodeID(id), S)
			mu, sigma = mv.Mu, mv.Sigma()
		}
		for l, k := range ks {
			t := mu + k*sigma
			if t < 0 {
				t = 0
			}
			add[id*K+l] = t
		}
	}
	arr := make([]float64, n*K)
	m.MaxPlus(arr, add, K, K)
	tmax := make([]float64, K)
	for l := range tmax {
		tmax[l], _ = m.OutputMax(arr, K, l)
	}
	return tmax
}
