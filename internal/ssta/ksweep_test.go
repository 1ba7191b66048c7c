package ssta

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
)

var batchWorkerCounts = []int{1, 4}

func TestDetBatchBitIdenticalToCornerSweeps(t *testing.T) {
	ks := []float64{-3, -1, 0, 1, 2.5, 3}
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		want := make([]float64, len(ks))
		for i, k := range ks {
			want[i] = cornerSweep(m, S, k)
		}
		for _, w := range batchWorkerCounts {
			got := KSweep(m, S, ks, w)
			for i := range ks {
				if got[i] != want[i] {
					t.Fatalf("%s w=%d k=%v: batched %v != scalar %v",
						name, w, ks[i], got[i], want[i])
				}
			}
		}
	}
}

func TestCornersMatchAcrossWorkersAndSign(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		want := Corners(m, S, 3)
		for _, w := range batchWorkerCounts {
			if got := CornersWorkers(m, S, 3, w); *got != *want {
				t.Errorf("%s workers=%d: %+v != %+v", name, w, got, want)
			}
		}
		// The sign of k is documentation only: corners are symmetric.
		if got := Corners(m, S, -3); *got != *want {
			t.Errorf("%s: Corners(-3) %+v != Corners(3) %+v", name, got, want)
		}
	}
}

// TestNonFiniteRiskFactorPanics is the regression test for the k-path
// audit: a NaN or infinite risk factor must be rejected at the API
// boundary instead of flowing through the sweeps as a silent NaN
// circuit delay.
func TestNonFiniteRiskFactorPanics(t *testing.T) {
	m := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
	S := m.UnitSizes()
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		call func()
	}{
		{"Corners-NaN", func() { Corners(m, S, nan) }},
		{"CornersWorkers-Inf", func() { CornersWorkers(m, S, inf, 2) }},
		{"KSweep-NaN", func() { KSweep(m, S, []float64{0, nan}, 1) }},
		{"NewDetBatch-negInf", func() { NewDetBatch(m, []float64{math.Inf(-1)}, 1) }},
		{"Objective-NaN", func() { ObjectiveMuPlusKSigma(stats.MV{Mu: 1, Var: 1}, nan) }},
		{"GradMuPlusKSigma-Inf", func() { GradMuPlusKSigma(m, S, inf) }},
		{"GradWorkers-NaN", func() { GradMuPlusKSigmaWorkers(m, S, nan, 2) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.call()
		}()
	}
}

// TestBatchWarmSweepsAllocFree pins the steady-state serial DetBatch
// sweep at zero allocations: all slabs are arena-allocated at
// construction, so an evaluation loop never touches the heap.
func TestBatchWarmSweepsAllocFree(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	S := rampSizes(m)
	db := NewDetBatch(m, []float64{-3, 0, 3}, 1)
	db.Sweep(S)
	if n := testing.AllocsPerRun(10, func() { db.Sweep(S) }); n != 0 {
		t.Errorf("warm DetBatch.Sweep allocates %v/op, want 0", n)
	}
}
