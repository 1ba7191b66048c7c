package ssta

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestCtxVariantsBitIdenticalUncancelled: with a background context
// AnalyzeCtx and BackwardCtx must reproduce the serial sweeps bit for
// bit, for serial and parallel worker counts alike, with and without a
// recorder attached.
func TestCtxVariantsBitIdenticalUncancelled(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		ref := Analyze(m, S, true)
		refPhi, refGrad := GradMuPlusKSigma(m, S, 3)
		for _, workers := range []int{1, 4} {
			metrics := telemetry.NewMetrics()
			for _, opt := range []SweepOptions{{Workers: workers}, {Workers: workers, Recorder: metrics}} {
				r, err := AnalyzeCtx(context.Background(), m, S, true, opt)
				if err != nil {
					t.Fatalf("%s workers=%d: AnalyzeCtx: %v", name, workers, err)
				}
				if r.Tmax != ref.Tmax {
					t.Fatalf("%s workers=%d: Tmax %v != %v", name, workers, r.Tmax, ref.Tmax)
				}
				for i := range r.Arrival {
					if r.Arrival[i] != ref.Arrival[i] {
						t.Fatalf("%s workers=%d: Arrival[%d] differs", name, workers, i)
					}
				}
				phi, sMu, sVar := ObjectiveMuPlusKSigma(r.Tmax, 3)
				grad, err := r.BackwardCtx(context.Background(), m, S, sMu, sVar, opt)
				if err != nil {
					t.Fatalf("%s workers=%d: BackwardCtx: %v", name, workers, err)
				}
				if phi != refPhi {
					t.Fatalf("%s workers=%d: phi %v != %v", name, workers, phi, refPhi)
				}
				for i := range grad {
					if grad[i] != refGrad[i] {
						t.Fatalf("%s workers=%d: grad[%d] %v != %v", name, workers, i, grad[i], refGrad[i])
					}
				}
			}
			// Only the recorded pass counts: one sweep each way.
			for _, c := range []string{"ssta.forward_sweeps", "ssta.adjoint_sweeps"} {
				if got := metrics.CounterValue(c); got != 1 {
					t.Fatalf("%s workers=%d: %s = %d, want 1", name, workers, c, got)
				}
			}
			if got := metrics.GaugeValue("ssta.nodes"); got != float64(len(m.G.C.Nodes)) {
				t.Fatalf("%s workers=%d: ssta.nodes gauge = %v, want %d", name, workers, got, len(m.G.C.Nodes))
			}
		}
	}
}

// TestCtxCancelledReturnsErr: a context cancelled before the sweep
// starts must yield (nil, ctx.Err()) from both ctx entry points and no
// partial result.
func TestCtxCancelledReturnsErr(t *testing.T) {
	m := parallelTestModels(t)["tree7"]
	S := m.UnitSizes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if r, err := AnalyzeCtx(ctx, m, S, true, SweepOptions{Workers: 2}); err != context.Canceled || r != nil {
		t.Fatalf("AnalyzeCtx = (%v, %v), want (nil, context.Canceled)", r, err)
	}
	// Backward on a tape from an uncancelled forward pass.
	r, err := AnalyzeCtx(context.Background(), m, S, true, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if grad, err := r.BackwardCtx(ctx, m, S, 1, 0, SweepOptions{Workers: 2}); err != context.Canceled || grad != nil {
		t.Fatalf("BackwardCtx = (%v, %v), want (nil, context.Canceled)", grad, err)
	}
}

// TestCtxCancelMidSweepNoGoroutineLeak: cancelling while parallel
// sweeps are in flight must never strand level workers — cancellation
// is polled between levels, so every runLevel barrier completes.
func TestCtxCancelMidSweepNoGoroutineLeak(t *testing.T) {
	models := parallelTestModels(t)
	m := models["gen1200"] // large enough for the parallel path
	S := rampSizes(m)
	tape := Analyze(m, S, true)
	opt := SweepOptions{Workers: 4}
	base := runtime.NumGoroutine()

	sawCancel := false
	for trial := 0; trial < 20; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel() // races the sweeps: either outcome is legal
		_, errF := AnalyzeCtx(ctx, m, S, true, opt)
		_, errB := tape.BackwardCtx(ctx, m, S, 1, 0, opt)
		for _, err := range []error{errF, errB} {
			if err != nil {
				if err != context.Canceled {
					t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
				}
				sawCancel = true
			}
		}
	}
	if !sawCancel {
		t.Log("no trial observed a mid-sweep cancellation; leak check still valid")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled sweeps: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
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
		if _, err := AnalyzeCtx(ctx, m, S, false, SweepOptions{Workers: 1}); err != nil {
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
