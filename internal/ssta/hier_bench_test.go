package ssta

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// reevalCounter sums the nodes the engine re-evaluated — the dirty
// counts of its "inc.update" events plus the node counts of its
// "hier.sweep" full passes — a deterministic work unit reported next
// to ns/op.
type reevalCounter struct{ nodes int64 }

func (c *reevalCounter) Event(scope, name string, fields ...telemetry.KV) {
	key := ""
	switch {
	case scope == "inc" && name == "update":
		key = "dirty"
	case scope == "hier" && name == "sweep":
		key = "nodes"
	default:
		return
	}
	for _, f := range fields {
		if f.Key == key {
			c.nodes += int64(f.Val)
		}
	}
}
func (c *reevalCounter) Count(string, int64)        {}
func (c *reevalCounter) Gauge(string, float64)      {}
func (c *reevalCounter) Span(string, time.Duration) {}

// reevalSteps is the number of counted steps reportReevals replays.
// It is fixed, not b.N, so nodes/op is the same work unit at every
// -benchtime and in every run of the ledger.
const reevalSteps = 100

// reportReevals replays a benchmark's step script — warm uncounted
// steps 0..warm-1, then reevalSteps counted ones from step warm on, as
// the timed loop runs them — on a fresh engine with a reevalCounter
// attached, and reports the nodes re-evaluated per counted step as
// nodes/op. The timed loop itself runs without a
// recorder: an attached one moves each update event's fields to the
// heap, which would show in allocs/op.
func reportReevals(b *testing.B, m *delay.Model, warm int, step func(h *Hier, i int)) {
	rc := &reevalCounter{}
	h := NewHier(m, m.UnitSizes(), HierOptions{Recorder: rc})
	for i := 0; i < warm; i++ {
		step(h, i)
	}
	rc.nodes = 0
	for i := 0; i < reevalSteps; i++ {
		step(h, warm+i)
	}
	b.ReportMetric(float64(rc.nodes)/reevalSteps, "nodes/op")
}

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

// BenchmarkFlatGradGen100kW1 is the baseline: one full taped forward
// sweep plus the adjoint pass through the flat serial path, allocating
// its Result and tape per evaluation.
func BenchmarkFlatGradGen100kW1(b *testing.B) {
	m := gen100kModel(b)
	S := m.UnitSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GradMuPlusKSigma(m, S, 3)
	}
}

// BenchmarkHierGradGen100kW1 is the same full forward+adjoint
// evaluation through the persistent engine over its arena-backed
// slabs, with no per-evaluation allocation. (The W1 suffix is kept
// from the worker-count series so the ledger row stays comparable.)
func BenchmarkHierGradGen100kW1(b *testing.B) {
	m := gen100kModel(b)
	h := NewHier(m, m.UnitSizes(), HierOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Resweep()
		h.GradMuPlusKSigma(3)
	}
}

// BenchmarkFlatStepGen100k is one warm sizing step through the flat
// path: a single-gate size change forces a full 100k-gate resweep.
func BenchmarkFlatStepGen100k(b *testing.B) {
	m := gen100kModel(b)
	S := m.UnitSizes()
	gates := m.G.C.GateIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		S[gates[(i*7919)%len(gates)]] = 1 + 0.3*float64(1+i%5)
		GradMuPlusKSigma(m, S, 3)
	}
}

// BenchmarkHierStepGen100k is the same warm sizing step through the
// persistent engine: only the dirty cone's nodes re-evaluate, and the
// warm loop runs at zero allocations per step. It reports the
// nodes re-evaluated per step (nodes/op).
func BenchmarkHierStepGen100k(b *testing.B) {
	m := gen100kModel(b)
	gates := m.G.C.GateIDs()
	step := func(h *Hier, i int) {
		h.SetSize(gates[(i*7919)%len(gates)], 1+0.3*float64(1+i%5))
		h.GradMuPlusKSigma(3)
	}
	// Time from a mixed-size state; the dirty bitset is sized at
	// construction, so the warm-up grows nothing. The timed steps
	// continue the script after the warm-up: replaying steps 0..warm-1
	// would rewrite bit-identical sizes and time only the adjoint.
	const warm = 50
	h := NewHier(m, m.UnitSizes(), HierOptions{})
	for i := 0; i < warm; i++ {
		step(h, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(h, warm+i)
	}
	b.StopTimer()
	reportReevals(b, m, warm, step)
}

// BenchmarkHierAdjointGen100k is the engine's adjoint pass alone: a
// warm engine with nothing dirty, one mu+3sigma gradient pass per op,
// left in sweep order as the greedy sizer reads it.
func BenchmarkHierAdjointGen100k(b *testing.B) {
	m := gen100kModel(b)
	h := NewHier(m, m.UnitSizes(), HierOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SweepGradMuPlusKSigma(3)
	}
}

// BenchmarkHierBackwardGen100k is the same adjoint pass with the
// translation to NodeID order that Backward, GradMuPlusKSigma and
// Criticality callers pay.
func BenchmarkHierBackwardGen100k(b *testing.B) {
	m := gen100kModel(b)
	h := NewHier(m, m.UnitSizes(), HierOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.GradMuPlusKSigma(3)
	}
}
