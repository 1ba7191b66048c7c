package montecarlo

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// TestLaneWidthBitIdentical: the lane width is a pure performance
// knob — every (LaneWidth, Workers) pair must reproduce the scalar
// single-worker run exactly, moments and sorted samples alike,
// including a sample count that is not a multiple of the lane width
// and spans multiple shards.
func TestLaneWidthBitIdentical(t *testing.T) {
	gen, err := netlist.Generate(netlist.GenSpec{
		Name: "mc300", Gates: 300, Inputs: 12, Outputs: 6,
		Depth: 9, MaxFanin: 4, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := delay.MustBind(netlist.MustCompile(gen), delay.Default())
	S := m.UnitSizes()
	base := Options{
		Samples: 2*shardSamples + 1037, Seed: 42,
		KeepSamples: true, Workers: 1, LaneWidth: 1,
	}
	want, err := Run(m, S, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, K := range []int{1, 2, 3, 8, 0} { // 0 = default width
		for _, w := range []int{1, 4} {
			opt := base
			opt.LaneWidth = K
			opt.Workers = w
			got, err := Run(m, S, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Mu != want.Mu || got.Sigma != want.Sigma {
				t.Fatalf("K=%d w=%d: moments (%v, %v) != scalar (%v, %v)",
					K, w, got.Mu, got.Sigma, want.Mu, want.Sigma)
			}
			for i := range want.Samples {
				if got.Samples[i] != want.Samples[i] {
					t.Fatalf("K=%d w=%d: sample[%d] differs", K, w, i)
				}
			}
		}
	}
}
