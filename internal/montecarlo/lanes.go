package montecarlo

import (
	"math/rand"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// This file holds the batched shard runner: instead of propagating
// one sample per topology walk, a shard propagates blocks of K
// samples over K-strided structure-of-arrays slabs
// (slab[int(id)*K + lane], the layout of delay.MaxPlus), so one
// traversal's graph overhead — node metadata, fanin walks, pin
// offsets — is amortized across K samples and the per-node inner
// loops run over contiguous spans.
//
// Bit-identity: the random values are drawn in exactly the scalar
// order (sample-major: for each sample in turn, one normal variate
// per node in topo order) and only then propagated lane-parallel by
// delay.MaxPlus, whose every lane performs the scalar loop's
// floating-point operations in the scalar order. The Welford update
// consumes the block's circuit delays in sample order. A batched run
// is therefore bit-identical to the scalar per-sample loop (the test
// oracle) for every Workers count.

// laneWidth is the block size: eight lanes fill a cache line per node
// visit and measure near the knee of the amortization curve on the
// benchmark netlists.
const laneWidth = 8

// mcScratch is one worker's reusable slabs, both K-strided: arr holds
// a block's arrival lanes, vals its pre-drawn per-node values (input
// arrivals and gate delays).
type mcScratch struct {
	arr  []float64
	vals []float64
}

func newMCScratch(n int) *mcScratch {
	return &mcScratch{
		arr:  make([]float64, n*laneWidth),
		vals: make([]float64, n*laneWidth),
	}
}

// runShardLanes draws and propagates one shard's count samples in
// blocks of up to laneWidth lanes.
func runShardLanes(m *delay.Model, gateMu, gateSigma []float64, opt Options,
	sc *mcScratch, count int, sm *shardMoments, rng *rand.Rand) {
	const K = laneWidth
	g := m.G
	arr, vals := sc.arr, sc.vals
	for s0 := 0; s0 < count; s0 += K {
		kb := min(K, count-s0)
		// Draw phase, sample-major: lane l's variates are drawn
		// exactly when the scalar loop would draw sample s0+l's, kept
		// in a node-major slab for the propagation phase.
		for l := 0; l < kb; l++ {
			for _, id := range g.Topo {
				if g.C.Nodes[id].Kind == netlist.KindInput {
					a := m.Arrival[id]
					vals[int(id)*K+l] = a.Mu + a.Sigma()*rng.NormFloat64()
					continue
				}
				vals[int(id)*K+l] = gateMu[id] + gateSigma[id]*rng.NormFloat64()
			}
		}
		m.MaxPlus(arr, vals, K, kb)
		// Reduce phase, sample order: per-lane output max, then the
		// scalar Welford recurrence over the block's delays.
		for l := 0; l < kb; l++ {
			tmax, _ := m.OutputMax(arr, K, l)
			d := tmax - sm.mean
			sm.mean += d / float64(s0+l+1)
			sm.m2 += d * (tmax - sm.mean)
			if opt.KeepSamples {
				sm.keep = append(sm.keep, tmax)
			}
		}
	}
}
