package ssta

import (
	"testing"
)

// The CornerScalarX8/KSweepK8 pair measures what production runs: a
// one-shot eight-lane KSweep (slab allocation included) against eight
// independent scalar corner traversals (cornerSweep, the test oracle)
// on the 1200-gate netlist. Both ops evaluate the same eight risk
// levels, so ns/op is directly comparable. `make bench-batch`
// collects both into BENCH_batch.json.

var benchKs = []float64{-3, -2, -1, 0, 0.5, 1, 2, 3}

func BenchmarkCornerScalarX8Gen1200(b *testing.B) {
	m := parallelTestModels(b)["gen1200"]
	S := rampSizes(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range benchKs {
			cornerSweep(m, S, k)
		}
	}
}

func BenchmarkKSweepK8Gen1200(b *testing.B) {
	m := parallelTestModels(b)["gen1200"]
	S := rampSizes(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSweep(m, S, benchKs)
	}
}
