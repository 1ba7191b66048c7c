package ssta

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// gen100k is the canonical 100k-gate benchmark netlist (the
// cmd/circuitgen gen100k preset), streamed and compiled once per test
// binary.
var (
	gen100kOnce sync.Once
	gen100kM    *delay.Model
)

func gen100kModel(b *testing.B) *delay.Model {
	b.Helper()
	gen100kOnce.Do(func() {
		var buf bytes.Buffer
		if err := netlist.GenerateStream(&buf, netlist.Gen100kSpec()); err != nil {
			panic(err)
		}
		c, err := netlist.ReadCKT(&buf)
		if err != nil {
			panic(err)
		}
		gen100kM = delay.MustBind(netlist.MustCompile(c), delay.Default())
	})
	return gen100kM
}

// benchFlatGrad is the baseline: one full taped forward sweep plus the
// adjoint pass through the flat levelized path, allocating its Result
// and tape per evaluation.
func benchFlatGrad(b *testing.B, workers int) {
	m := gen100kModel(b)
	S := m.UnitSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GradMuPlusKSigmaWorkers(m, S, 3, workers)
	}
}

func BenchmarkFlatGradGen100kW1(b *testing.B) { benchFlatGrad(b, 1) }
func BenchmarkFlatGradGen100kW4(b *testing.B) { benchFlatGrad(b, 4) }
func BenchmarkFlatGradGen100kW8(b *testing.B) { benchFlatGrad(b, 8) }

// benchHierGrad is the same full forward+adjoint evaluation through
// the persistent engine: dataflow-scheduled blocks over arena-backed
// slabs when parallel, no per-evaluation allocation when serial.
func benchHierGrad(b *testing.B, workers int) {
	m := gen100kModel(b)
	h := NewHier(m, m.UnitSizes(), HierOptions{Workers: workers})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Resweep()
		h.GradMuPlusKSigma(3)
	}
}

func BenchmarkHierGradGen100kW1(b *testing.B) { benchHierGrad(b, 1) }
func BenchmarkHierGradGen100kW4(b *testing.B) { benchHierGrad(b, 4) }
func BenchmarkHierGradGen100kW8(b *testing.B) { benchHierGrad(b, 8) }

// BenchmarkFlatStepGen100k is one warm sizing step through the flat
// path: a single-gate size change forces a full 100k-gate resweep.
func BenchmarkFlatStepGen100k(b *testing.B) {
	m := gen100kModel(b)
	S := m.UnitSizes()
	gates := m.G.C.GateIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		S[gates[(i*7919)%len(gates)]] = 1 + 0.3*float64(i%5)
		GradMuPlusKSigmaWorkers(m, S, 3, 1)
	}
}

// BenchmarkHierStepGen100k is the same warm sizing step through the
// persistent engine: only the dirty cone's nodes re-evaluate, and the
// warm serial loop runs at zero allocations per step.
func BenchmarkHierStepGen100k(b *testing.B) {
	m := gen100kModel(b)
	h := NewHier(m, m.UnitSizes(), HierOptions{Workers: 1})
	gates := m.G.C.GateIDs()
	for i := 0; i < 50; i++ { // stretch the dirty buckets to steady state
		h.SetSize(gates[(i*7919)%len(gates)], 1+0.3*float64(i%5))
		h.GradMuPlusKSigma(3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SetSize(gates[(i*7919)%len(gates)], 1+0.3*float64(i%5))
		h.GradMuPlusKSigma(3)
	}
}
