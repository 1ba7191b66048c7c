package montecarlo

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// scalarOracle is Monte Carlo written one sample per topology walk:
// each shard draws from its substream in sample-major order,
// propagates the sample with a scalar max/add loop and feeds its
// Welford moments; the shards then merge with Chan's combination in
// shard order. Run's lane-strided blocks must reproduce it bit for
// bit, moments and sorted samples alike.
func scalarOracle(m *delay.Model, S []float64, samples int, seed int64) (mu, sigma float64, keep []float64) {
	g := m.G
	n := len(g.C.Nodes)
	gateMu := make([]float64, n)
	gateSigma := make([]float64, n)
	for _, id := range g.C.GateIDs() {
		mv := m.GateMV(id, S)
		gateMu[id] = mv.Mu
		gateSigma[id] = mv.Sigma()
	}
	arr := make([]float64, n)
	var tot int
	var mean, m2 float64
	for i := 0; i*shardSamples < samples; i++ {
		rng := rand.New(rand.NewSource(shardSeed(seed, i)))
		count := min(shardSamples, samples-i*shardSamples)
		var sm shardMoments
		for s := 0; s < count; s++ {
			for _, id := range g.Topo {
				nd := &g.C.Nodes[id]
				if nd.Kind == netlist.KindInput {
					a := m.Arrival[id]
					arr[id] = a.Mu + a.Sigma()*rng.NormFloat64()
					continue
				}
				u := arr[nd.Fanin[0]] + m.PinOff(id, 0)
				for k, f := range nd.Fanin[1:] {
					if a := arr[f] + m.PinOff(id, k+1); a > u {
						u = a
					}
				}
				d := gateMu[id] + gateSigma[id]*rng.NormFloat64()
				arr[id] = u + d
			}
			tmax := arr[g.C.Outputs[0]]
			for _, o := range g.C.Outputs[1:] {
				if a := arr[o]; a > tmax {
					tmax = a
				}
			}
			d := tmax - sm.mean
			sm.mean += d / float64(s+1)
			sm.m2 += d * (tmax - sm.mean)
			keep = append(keep, tmax)
		}
		if tot == 0 {
			tot, mean, m2 = count, sm.mean, sm.m2
			continue
		}
		na, nb := float64(tot), float64(count)
		delta := sm.mean - mean
		tot += count
		nt := float64(tot)
		mean += delta * nb / nt
		m2 += sm.m2 + delta*delta*na*nb/nt
	}
	if tot > 1 {
		sigma = sqrt(m2 / float64(tot-1))
	}
	sort.Float64s(keep)
	return mean, sigma, keep
}

// TestLanesMatchScalarOracle: Run's laneWidth-sample blocks must
// reproduce the scalar per-sample oracle exactly for every worker
// count, including sample counts below the lane width, one that is
// not a multiple of it, and one that spans several shards.
func TestLanesMatchScalarOracle(t *testing.T) {
	gen, err := netlist.Generate(netlist.GenSpec{
		Name: "mc300", Gates: 300, Inputs: 12, Outputs: 6,
		Depth: 9, MaxFanin: 4, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := delay.MustBind(netlist.MustCompile(gen), delay.Default())
	S := m.UnitSizes()
	for _, samples := range []int{1, 7, 2*shardSamples + 1037} {
		mu, sigma, keep := scalarOracle(m, S, samples, 42)
		for _, w := range []int{1, 4} {
			got, err := Run(m, S, Options{Samples: samples, Seed: 42, KeepSamples: true, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got.Mu != mu || got.Sigma != sigma {
				t.Fatalf("samples=%d w=%d: moments (%v, %v) != oracle (%v, %v)",
					samples, w, got.Mu, got.Sigma, mu, sigma)
			}
			if len(got.Samples) != len(keep) {
				t.Fatalf("samples=%d w=%d: %d samples != %d", samples, w, len(got.Samples), len(keep))
			}
			for i := range keep {
				if got.Samples[i] != keep[i] {
					t.Fatalf("samples=%d w=%d: sample[%d] differs", samples, w, i)
				}
			}
		}
	}
}
