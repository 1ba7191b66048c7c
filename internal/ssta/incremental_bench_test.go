package ssta

import (
	"math/rand"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
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
	inc := NewHier(m, m.UnitSizes(), HierOptions{})
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
		GradMuPlusKSigma(m, S, 3)
	}
}

// The ConeMove/WholeMove pair measures the two ways to move the
// engine by a whole size vector, the reduced NLP solver's traffic: a
// line search moves every free variable at once. Both replay the same
// cyclic script of moves and report the nodes re-evaluated per move
// (nodes/op). ConeMove is per-gate SetSize plus one dirty-cone Update;
// WholeMove is one SetSizes, a full forward pass without the marking
// and early-cutoff bookkeeping.

// wholeMoveScript returns the cyclic move script: about 43% of the
// gates take a new speed factor at every move (the mean share of the
// reduced solver's updates on the table1 k2-like circuit, 729 of
// 1,692), the rest sit pinned at 1 or Limit.
func wholeMoveScript(m *delay.Model, gates []netlist.NodeID) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	free := make([]bool, len(gates))
	pinned := make([]float64, len(gates))
	for i := range gates {
		switch r := rng.Float64(); {
		case r < 0.43:
			free[i] = true
		case r < 0.7:
			pinned[i] = 1
		default:
			pinned[i] = m.Limit
		}
	}
	script := make([][]float64, 16)
	for k := range script {
		x := append([]float64(nil), pinned...)
		for i := range x {
			if free[i] {
				x[i] = 1 + rng.Float64()*(m.Limit-1)
			}
		}
		script[k] = x
	}
	return script
}

func benchMove(b *testing.B, move func(h *Hier, gates []netlist.NodeID, x []float64)) {
	m := parallelTestModels(b)["gen1200"]
	gates := m.G.C.GateIDs()
	script := wholeMoveScript(m, gates)
	step := func(h *Hier, i int) { move(h, gates, script[i%len(script)]) }
	warm := len(script)
	h := NewHier(m, m.UnitSizes(), HierOptions{})
	for i := 0; i < warm; i++ {
		step(h, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(h, i)
	}
	b.StopTimer()
	reportReevals(b, m, warm, step)
}

func BenchmarkIncConeMoveGen1200(b *testing.B) {
	benchMove(b, func(h *Hier, gates []netlist.NodeID, x []float64) {
		s := h.Sizes()
		for i, id := range gates {
			if s[id] != x[i] {
				h.SetSize(id, x[i])
			}
		}
		h.Update()
	})
}

func BenchmarkIncWholeMoveGen1200(b *testing.B) {
	benchMove(b, func(h *Hier, gates []netlist.NodeID, x []float64) { h.SetSizes(gates, x) })
}

func BenchmarkIncUpdateTree7(b *testing.B)   { benchIncUpdate(b, "tree7") }
func BenchmarkIncUpdateGen1200(b *testing.B) { benchIncUpdate(b, "gen1200") }

func BenchmarkFullSweepTree7(b *testing.B)   { benchFullSweep(b, "tree7") }
func BenchmarkFullSweepGen1200(b *testing.B) { benchFullSweep(b, "gen1200") }
