package ssta

import (
	"runtime"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// parallelTestModels covers the built-in circuits plus a randomized
// 1,200-gate generated netlist.
func parallelTestModels(t testing.TB) map[string]*delay.Model {
	t.Helper()
	models := map[string]*delay.Model{
		"tree7": delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree()),
		"fig2":  delay.MustBind(netlist.MustCompile(netlist.Fig2Example()), delay.Default()),
		"apex1": delay.MustBind(netlist.MustCompile(netlist.Apex1Like()), delay.Default()),
		"k2":    delay.MustBind(netlist.MustCompile(netlist.K2Like()), delay.Default()),
	}
	gen, err := netlist.Generate(netlist.GenSpec{
		Name: "par1200", Gates: 1200, Inputs: 48, Outputs: 12,
		Depth: 18, MaxFanin: 4, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	models["gen1200"] = delay.MustBind(netlist.MustCompile(gen), delay.Default())
	return models
}

// sizes exercises non-uniform speed factors so the load terms differ
// per gate.
func rampSizes(m *delay.Model) []float64 {
	S := m.UnitSizes()
	for i, id := range m.G.C.GateIDs() {
		S[id] = 1 + 0.7*float64(i%5)/4
	}
	return S
}

var workerCounts = []int{1, 2, 3, runtime.NumCPU()}

func TestAnalyzeWorkersBitIdenticalToSerial(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		for _, withTape := range []bool{false, true} {
			want := Analyze(m, S, withTape)
			for _, w := range workerCounts {
				got := AnalyzeWorkers(m, S, withTape, w)
				if got.Tmax != want.Tmax {
					t.Errorf("%s workers=%d tape=%v: Tmax %+v != serial %+v",
						name, w, withTape, got.Tmax, want.Tmax)
				}
				for id := range want.Arrival {
					if got.Arrival[id] != want.Arrival[id] {
						t.Fatalf("%s workers=%d tape=%v: Arrival[%d] %+v != %+v",
							name, w, withTape, id, got.Arrival[id], want.Arrival[id])
					}
					if got.GateDelay[id] != want.GateDelay[id] {
						t.Fatalf("%s workers=%d tape=%v: GateDelay[%d] differs", name, w, withTape, id)
					}
				}
			}
		}
	}
}

func TestGradMuPlusKSigmaWorkersMatchesSerial(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		phiWant, gradWant := GradMuPlusKSigma(m, S, 3)
		for _, w := range workerCounts {
			phi, grad := GradMuPlusKSigmaWorkers(m, S, 3, w)
			if phi != phiWant {
				t.Errorf("%s workers=%d: phi %v != %v", name, w, phi, phiWant)
			}
			for id := range gradWant {
				if grad[id] != gradWant[id] {
					t.Fatalf("%s workers=%d: grad[%d] differs", name, w, id)
				}
			}
		}
	}
}
