package ssta

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// TestCtxVariantsBitIdenticalUncancelled: with a background context
// AnalyzeCtx must reproduce the plain sweep bit for bit, with and
// without a recorder attached.
func TestCtxVariantsBitIdenticalUncancelled(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		ref := Analyze(m, S, true)
		metrics := telemetry.NewMetrics()
		for _, opt := range []SweepOptions{{}, {Recorder: metrics}} {
			r, err := AnalyzeCtx(context.Background(), m, S, true, opt)
			if err != nil {
				t.Fatalf("%s: AnalyzeCtx: %v", name, err)
			}
			if r.Tmax != ref.Tmax {
				t.Fatalf("%s: Tmax %v != %v", name, r.Tmax, ref.Tmax)
			}
			for i := range r.Arrival {
				if r.Arrival[i] != ref.Arrival[i] {
					t.Fatalf("%s: Arrival[%d] differs", name, i)
				}
			}
		}
		// Only the recorded pass counts.
		if got := metrics.CounterValue("ssta.forward_sweeps"); got != 1 {
			t.Fatalf("%s: ssta.forward_sweeps = %d, want 1", name, got)
		}
		if got := metrics.GaugeValue("ssta.nodes"); got != float64(len(m.G.C.Nodes)) {
			t.Fatalf("%s: ssta.nodes gauge = %v, want %d", name, got, len(m.G.C.Nodes))
		}
	}
}

// TestCtxCancelledReturnsErr: a context cancelled before the sweep
// starts must yield (nil, ctx.Err()) and no partial result.
func TestCtxCancelledReturnsErr(t *testing.T) {
	m := parallelTestModels(t)["tree7"]
	S := m.UnitSizes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if r, err := AnalyzeCtx(ctx, m, S, true, SweepOptions{}); err != context.Canceled || r != nil {
		t.Fatalf("AnalyzeCtx = (%v, %v), want (nil, context.Canceled)", r, err)
	}
}

// TestAnalyzeCtxSerialAllocs pins the serial, untraced entry point's
// allocations on the 1200-gate netlist: the context poll and the
// options struct add nothing over Analyze, and an untaped sweep
// allocates only its Result and two moment slabs — the inline serial
// loop creates no per-level closure.
func TestAnalyzeCtxSerialAllocs(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	S := rampSizes(m)
	ctx := context.Background()
	plain := testing.AllocsPerRun(20, func() { Analyze(m, S, false) })
	viaCtx := testing.AllocsPerRun(20, func() {
		if _, err := AnalyzeCtx(ctx, m, S, false, SweepOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if viaCtx > plain {
		t.Fatalf("AnalyzeCtx allocates %.0f per sweep, Analyze %.0f", viaCtx, plain)
	}
	if viaCtx > 3 {
		t.Fatalf("serial untaped AnalyzeCtx allocates %.0f per sweep, want <= 3", viaCtx)
	}
}

// TestAnalyzeCtxRejectsWrongSizeCount: a speed-factor vector that is
// not one entry per node must panic at the entry point with the counts
// named, not die deep in the load sum (short) or be silently accepted
// (long).
func TestAnalyzeCtxRejectsWrongSizeCount(t *testing.T) {
	m := parallelTestModels(t)["tree7"]
	n := len(m.G.C.Nodes)
	for _, size := range []int{n - 1, n + 1} {
		func() {
			defer func() {
				want := fmt.Sprintf("ssta: AnalyzeCtx got %d sizes for %d nodes", size, n)
				if got := recover(); got != want {
					t.Errorf("len(S)=%d: panic %v, want %q", size, got, want)
				}
			}()
			S := make([]float64, size)
			for i := range S {
				S[i] = 1
			}
			AnalyzeCtx(context.Background(), m, S, true, SweepOptions{})
		}()
	}
}
