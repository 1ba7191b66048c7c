package montecarlo

import (
	"math/rand"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// This file holds the batched shard runner: instead of propagating
// one sample per topology walk, a shard propagates blocks of K
// samples over K-strided structure-of-arrays slabs
// (slab[int(id)*K + lane], the layout shared with ssta.DetBatch), so one
// traversal's graph overhead — node metadata, fanin walks, pin
// offsets — is amortized across K samples and the per-node inner
// loops run over contiguous spans.
//
// Bit-identity: the random values are drawn in exactly the scalar
// order (sample-major: for each sample in turn, one normal variate
// per node in topo order) and only then propagated lane-parallel, and
// each lane's propagation performs the scalar loop's floating-point
// operations in the scalar order. The Welford update consumes the
// block's circuit delays in sample order. A batched run is therefore
// bit-identical to the scalar path for every (LaneWidth, Workers)
// pair.

// defaultLaneWidth is the block size used when Options.LaneWidth is
// unset. Eight lanes fill a cache line per node visit and measure
// near the knee of the amortization curve on the benchmark netlists.
const defaultLaneWidth = 8

// mcScratch is one worker's reusable slabs: arr doubles as the scalar
// arrival array (K == 1) and the K-strided lane arrival slab; vals
// holds a block's pre-drawn per-node values (input arrivals and gate
// delays), K-strided.
type mcScratch struct {
	arr  []float64
	vals []float64
}

func newMCScratch(n, K int) *mcScratch {
	sc := &mcScratch{arr: make([]float64, n*K)}
	if K > 1 {
		sc.vals = make([]float64, n*K)
	}
	return sc
}

// runShardLanes draws and propagates one shard's count samples in
// blocks of up to K lanes.
func runShardLanes(m *delay.Model, gateMu, gateSigma []float64, opt Options,
	K int, sc *mcScratch, count int, sm *shardMoments, rng *rand.Rand) {
	g := m.G
	arr, vals := sc.arr, sc.vals
	for s0 := 0; s0 < count; s0 += K {
		kb := min(K, count-s0)
		// Draw phase, sample-major: lane l's variates are drawn
		// exactly when the scalar loop would draw sample s0+l's, kept
		// in a node-major slab for the propagation phase. Gate-delay
		// truncation applies at draw time — the scalar path clamps
		// before the add, so the stored value is the clamped one.
		for l := 0; l < kb; l++ {
			for _, id := range g.Topo {
				if g.C.Nodes[id].Kind == netlist.KindInput {
					a := m.Arrival[id]
					vals[int(id)*K+l] = a.Mu + a.Sigma()*rng.NormFloat64()
					continue
				}
				d := gateMu[id] + gateSigma[id]*rng.NormFloat64()
				if opt.TruncateAtZero && d < 0 {
					d = 0
				}
				vals[int(id)*K+l] = d
			}
		}
		// Propagation phase, lane-parallel: per node, fold the fanin
		// max into the node's own arrival lanes (pin order preserved),
		// then add the pre-drawn gate delay lanes.
		for _, id := range g.Topo {
			base := int(id) * K
			nd := &g.C.Nodes[id]
			if nd.Kind == netlist.KindInput {
				copy(arr[base:base+kb], vals[base:base+kb])
				continue
			}
			f0 := int(nd.Fanin[0]) * K
			off0 := m.PinOff(id, 0)
			for l := 0; l < kb; l++ {
				arr[base+l] = arr[f0+l] + off0
			}
			for k, f := range nd.Fanin[1:] {
				fb := int(f) * K
				off := m.PinOff(id, k+1)
				for l := 0; l < kb; l++ {
					if a := arr[fb+l] + off; a > arr[base+l] {
						arr[base+l] = a
					}
				}
			}
			for l := 0; l < kb; l++ {
				arr[base+l] += vals[base+l]
			}
		}
		// Reduce phase, sample order: per-lane output max, then the
		// scalar Welford recurrence over the block's delays.
		o0 := int(g.C.Outputs[0]) * K
		for l := 0; l < kb; l++ {
			tmax := arr[o0+l]
			for _, o := range g.C.Outputs[1:] {
				if a := arr[int(o)*K+l]; a > tmax {
					tmax = a
				}
			}
			d := tmax - sm.mean
			sm.mean += d / float64(s0+l+1)
			sm.m2 += d * (tmax - sm.mean)
			if opt.KeepSamples {
				sm.keep = append(sm.keep, tmax)
			}
		}
	}
}
