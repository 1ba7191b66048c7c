package ssta

import (
	"testing"
)

// The Inc/FullSweep benchmark pairs measure what the persistent
// engine's dirty cone buys a sizing loop: one "step" is a single-gate size change
// followed by a full gradient evaluation (forward + adjoint). The
// full-sweep variant pays a fresh allocating taped O(V) sweep; the
// incremental variant re-evaluates only the changed cone and reuses
// every slab. `make bench-inc` collects both into
// BENCH_incremental.json.

// benchIncUpdate also reports the nodes re-evaluated per step
// (nodes/op).
func benchIncUpdate(b *testing.B, name string) {
	m := parallelTestModels(b)[name]
	gates := m.G.C.GateIDs()
	step := func(h *Hier, i int) {
		h.SetSize(gates[(i*31)%len(gates)], 1+0.3*float64(i%5))
		h.GradMuPlusKSigma(3)
	}
	inc := NewHier(m, m.UnitSizes(), HierOptions{Workers: 1})
	inc.GradMuPlusKSigma(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(inc, i)
	}
	b.StopTimer()
	reportReevals(b, m, 0, step)
}

func benchFullSweep(b *testing.B, name string) {
	m := parallelTestModels(b)[name]
	gates := m.G.C.GateIDs()
	S := m.UnitSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := gates[(i*31)%len(gates)]
		S[id] = 1 + 0.3*float64(i%5)
		GradMuPlusKSigmaWorkers(m, S, 3, 1)
	}
}

func BenchmarkIncUpdateTree7(b *testing.B)   { benchIncUpdate(b, "tree7") }
func BenchmarkIncUpdateGen1200(b *testing.B) { benchIncUpdate(b, "gen1200") }

func BenchmarkFullSweepTree7(b *testing.B)   { benchFullSweep(b, "tree7") }
func BenchmarkFullSweepGen1200(b *testing.B) { benchFullSweep(b, "gen1200") }
