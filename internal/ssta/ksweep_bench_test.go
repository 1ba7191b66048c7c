package ssta

import (
	"testing"
)

// The CornerScalar/CornerBatch benchmark families measure what the
// K-lane structure-of-arrays DetBatch sweep buys over K independent
// scalar corner traversals on the 1200-gate netlist. One scalar op is
// one full traversal, one BatchK op is K sweeps in one traversal, so
// the speedup at K is K * scalar / batchK. `make bench-batch` collects
// both sides into BENCH_batch.json.

func benchCornerScalar(b *testing.B, sweeps int) {
	m := parallelTestModels(b)["gen1200"]
	S := rampSizes(m)
	ks := []float64{-3, -2, -1, 0, 0.5, 1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < sweeps; s++ {
			cornerSweep(m, S, ks[s])
		}
	}
}

func benchCornerBatch(b *testing.B, K int) {
	m := parallelTestModels(b)["gen1200"]
	S := rampSizes(m)
	ks := []float64{-3, -2, -1, 0, 0.5, 1, 2, 3}
	db := NewDetBatch(m, ks[:K], 1)
	db.Sweep(S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Sweep(S)
	}
}

// One scalar corner traversal: the per-sweep baseline.
func BenchmarkCornerScalarGen1200(b *testing.B) { benchCornerScalar(b, 1) }

// Eight scalar traversals: the work BatchK8 replaces in one pass.
func BenchmarkCornerScalarX8Gen1200(b *testing.B) { benchCornerScalar(b, 8) }

func BenchmarkCornerBatchK1Gen1200(b *testing.B) { benchCornerBatch(b, 1) }
func BenchmarkCornerBatchK4Gen1200(b *testing.B) { benchCornerBatch(b, 4) }
func BenchmarkCornerBatchK8Gen1200(b *testing.B) { benchCornerBatch(b, 8) }
