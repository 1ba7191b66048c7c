package delay

import "repro/internal/netlist"

// MaxPlus is the one deterministic arrival sweep: the mean-delay
// analysis, the corner lanes and the Monte Carlo sample blocks all
// run it, differing only in what they put in add. Both slabs use the
// lane-stride contract slab[int(id)*K + l]; lanes l < kb of every
// node are written, lanes kb..K-1 are left untouched (a Monte Carlo
// tail block fills fewer lanes than the slab holds).
//
// In topological order, an input's arrival is add[id*K+l], and a
// gate's arrival is the max over its fanins, in pin order, of
// arr[fanin] + PinOff, plus add[id*K+l]. Per lane that is the scalar
// fold's floating-point operations in the scalar order, so a lane is
// bit-identical to a one-lane sweep over the same add values.
func (m *Model) MaxPlus(arr, add []float64, K, kb int) {
	g := m.G
	for _, id := range g.Topo {
		base := int(id) * K
		dst := arr[base : base+kb]
		src := add[base : base+kb]
		nd := &g.C.Nodes[id]
		if nd.Kind == netlist.KindInput {
			copy(dst, src)
			continue
		}
		fb := int(nd.Fanin[0]) * K
		in, off := arr[fb:fb+kb], m.PinOff(id, 0)
		for l := range dst {
			dst[l] = in[l] + off
		}
		for p, f := range nd.Fanin[1:] {
			fb := int(f) * K
			in, off := arr[fb:fb+kb], m.PinOff(id, p+1)
			for l := range dst {
				if a := in[l] + off; a > dst[l] {
					dst[l] = a
				}
			}
		}
		for l := range dst {
			dst[l] += src[l]
		}
	}
}

// OutputMax returns lane l's circuit delay in a K-strided arrival
// slab — the max over the primary outputs, first output first, a
// later one replacing it only when strictly greater — and the output
// that realizes it.
func (m *Model) OutputMax(arr []float64, K, l int) (float64, netlist.NodeID) {
	outs := m.G.C.Outputs
	crit := outs[0]
	tmax := arr[int(crit)*K+l]
	for _, o := range outs[1:] {
		if a := arr[int(o)*K+l]; a > tmax {
			tmax, crit = a, o
		}
	}
	return tmax, crit
}
