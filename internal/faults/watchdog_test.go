package faults

import (
	"testing"

	"repro/internal/nlp"
	"repro/internal/telemetry"
)

// TestWatchdogFiresOnNonConvergingSolve is the watchdog acceptance
// criterion: a solve whose objective element persistently evaluates to
// NaN cannot make progress — the recovery loop restores the last good
// iterate again and again, so the alm.outer merit plateaus — and the
// solve-health watchdog in the telemetry chain must raise
// solve.stalled while the solve is still running. The stall events are
// themselves deterministic (driven by deterministic event values), so
// the test also pins them across two runs of the same solve.
func TestWatchdogFiresOnNonConvergingSolve(t *testing.T) {
	run := func() *telemetry.Watchdog {
		const n = 8
		p := chain(n, true)
		wrapped, rec := Wrap(p, []Fault{{Elem: 0, Call: 4, Kind: EvalNaN, Persist: true}}, nil)
		wd := telemetry.NewWatchdog(telemetry.NewMetrics(), telemetry.WatchdogOptions{
			MinImprove: 1e-9,
			Patience:   4,
		})
		opt := nlp.Options{
			Method: nlp.LBFGS, RecoveryBudget: 3, Recorder: wd,
		}
		res, err := nlp.Solve(wrapped, point(n), opt)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		if res.Status != nlp.NumericalFailure {
			t.Fatalf("status = %v, want NumericalFailure (the fixture must not converge)", res.Status)
		}
		if rec.Count() == 0 {
			t.Fatal("persistent fault never fired")
		}
		return wd
	}

	wd := run()
	if !wd.Stalled() {
		t.Fatal("watchdog stayed silent on a non-converging fault-injected solve")
	}
	s := wd.Stalls()[0]
	if s.Scope != "alm" || s.Src != telemetry.StallSrcALM {
		t.Errorf("stall source = %s/%d, want alm/%d", s.Scope, s.Src, telemetry.StallSrcALM)
	}
	if s.Streak < 4 {
		t.Errorf("stall streak = %d, want >= patience 4", s.Streak)
	}

	// Determinism: a repeat run fires the same stalls.
	a, b := wd.Stalls(), run().Stalls()
	if len(a) != len(b) {
		t.Fatalf("stall count differs between runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("stall %d differs between runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
