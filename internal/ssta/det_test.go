package ssta

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
)

// detOracle is the mean-delay sweep written as a scalar loop: input
// arrivals enter at their means, unclamped, and each gate adds its
// mean delay to the latest pin-offset fanin arrival. DetAnalyze's
// one-lane delay.MaxPlus fold must reproduce it bit for bit.
func detOracle(m *delay.Model, S []float64) *DetResult {
	g := m.G
	n := len(g.C.Nodes)
	r := &DetResult{Arrival: make([]float64, n), CriticalOutput: -1}
	for _, id := range g.Topo {
		nd := &g.C.Nodes[id]
		if nd.Kind == netlist.KindInput {
			r.Arrival[id] = m.Arrival[id].Mu
			continue
		}
		u := r.Arrival[nd.Fanin[0]] + m.PinOff(id, 0)
		for k, f := range nd.Fanin[1:] {
			if a := r.Arrival[f] + m.PinOff(id, k+1); a > u {
				u = a
			}
		}
		r.Arrival[id] = u + m.GateMu(id, S)
	}
	for _, o := range g.C.Outputs {
		if r.CriticalOutput < 0 || r.Arrival[o] > r.Tmax {
			r.Tmax = r.Arrival[o]
			r.CriticalOutput = o
		}
	}
	return r
}

func TestDetAnalyzeMatchesScalarLoop(t *testing.T) {
	models := parallelTestModels(t)
	models["offsets"] = offsetModel(t, 0.7)
	for name, m := range models {
		// One negative input arrival: DetAnalyze takes it unclamped.
		m.Arrival[m.G.C.InputIDs()[0]] = stats.MV{Mu: -5}
		S := rampSizes(m)
		want := detOracle(m, S)
		got := DetAnalyze(m, S)
		for id := range want.Arrival {
			if math.Float64bits(got.Arrival[id]) != math.Float64bits(want.Arrival[id]) {
				t.Fatalf("%s: Arrival[%d] %v != scalar %v", name, id, got.Arrival[id], want.Arrival[id])
			}
		}
		if math.Float64bits(got.Tmax) != math.Float64bits(want.Tmax) ||
			got.CriticalOutput != want.CriticalOutput {
			t.Errorf("%s: (Tmax, CriticalOutput) = (%v, %d), scalar (%v, %d)",
				name, got.Tmax, got.CriticalOutput, want.Tmax, want.CriticalOutput)
		}
	}
}

// TestNegativeInputArrivalConventions pins the two input conventions
// that share delay.MaxPlus: DetAnalyze keeps a negative mean input
// arrival as it is, while KSweep's k = 0 lane clamps it to t = 0.
func TestNegativeInputArrivalConventions(t *testing.T) {
	m := delay.MustBind(netlist.MustCompile(netlist.Chain(2)), delay.Default())
	S := m.UnitSizes()
	in := m.G.C.InputIDs()[0]
	m.Arrival[in] = stats.MV{Mu: -5}
	det := DetAnalyze(m, S)
	if det.Arrival[in] != -5 {
		t.Errorf("DetAnalyze input arrival %v, want -5 unclamped", det.Arrival[in])
	}
	k0 := KSweep(m, S, []float64{0})[0]
	if !(det.Tmax < k0) {
		t.Errorf("DetAnalyze Tmax %v not below the clamped corner %v", det.Tmax, k0)
	}
	m.Arrival[in] = stats.MV{}
	if want := DetAnalyze(m, S).Tmax; k0 != want {
		t.Errorf("KSweep k=0 lane %v, want the t=0 start %v", k0, want)
	}
}
