package nlp

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestStatusFailed(t *testing.T) {
	for _, s := range []Status{Converged, MaxIterations, Stalled} {
		if s.Failed() {
			t.Errorf("%v.Failed() = true, want false", s)
		}
	}
	for _, s := range []Status{Cancelled, DeadlineExceeded, NumericalFailure} {
		if !s.Failed() {
			t.Errorf("%v.Failed() = false, want true", s)
		}
	}
}

func TestLadderFor(t *testing.T) {
	if got := ladderFor(NewtonCG); len(got) != 3 || got[0] != NewtonCG || got[1] != LBFGS || got[2] != ProjGrad {
		t.Errorf("ladderFor(NewtonCG) = %v", got)
	}
	if got := ladderFor(LBFGS); len(got) != 2 || got[0] != LBFGS || got[1] != ProjGrad {
		t.Errorf("ladderFor(LBFGS) = %v", got)
	}
	if got := ladderFor(ProjGrad); len(got) != 1 || got[0] != ProjGrad {
		t.Errorf("ladderFor(ProjGrad) = %v", got)
	}
}

// TestProjGradConverges pins the ladder's bottom rung as a working
// solver in its own right.
func TestProjGradConverges(t *testing.T) {
	w := []float64{1, 4, 2, 8}
	c := []float64{0.5, -1, 2, 0.25}
	p := quadratic(w, c)
	res, err := Solve(p, make([]float64, 4), Options{Method: ProjGrad})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Converged {
		t.Fatalf("status = %v, want converged", res.Status)
	}
	if res.Method != ProjGrad {
		t.Fatalf("method = %v, want projgrad", res.Method)
	}
	for i := range c {
		if !approx(res.X[i], c[i], 1e-5) {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], c[i])
		}
	}
}

func TestSolveCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := chainProblem(60)
	x0 := testPoint(60, 0.3)
	res, err := SolveCtx(ctx, p, x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Cancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	if res.Outer != 0 {
		t.Fatalf("outer = %d, want 0 (no iteration may start after cancellation)", res.Outer)
	}
	// The best-so-far iterate of a run that never iterated is the
	// projected start point.
	want := append([]float64(nil), x0...)
	p.project(want)
	for i := range want {
		if res.X[i] != want[i] {
			t.Fatalf("x[%d] = %v, want projected x0 %v", i, res.X[i], want[i])
		}
	}
}

func TestSolveCtxExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := SolveCtx(ctx, chainProblem(60), testPoint(60, 0.3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != DeadlineExceeded {
		t.Fatalf("status = %v, want deadline exceeded", res.Status)
	}
}

// cancelAfterRec is a telemetry sink that fires a context cancellation
// after a scripted number of "alm.outer" events — a deterministic way
// to interrupt a solve at a mid-run iteration boundary.
type cancelAfterRec struct {
	noopRec
	outers int
	after  int
	cancel context.CancelFunc
}

func (r *cancelAfterRec) Event(scope, name string, fields ...telemetry.KV) {
	if scope == "alm" && name == "outer" {
		r.outers++
		if r.outers == r.after {
			r.cancel()
		}
	}
}

// noopRec implements telemetry.Recorder with no-ops so test recorders
// only override what they watch.
type noopRec struct{}

func (noopRec) Event(string, string, ...telemetry.KV) {}
func (noopRec) Count(string, int64)                   {}
func (noopRec) Gauge(string, float64)                 {}
func (noopRec) Span(string, time.Duration)            {}

func TestCancelMidSolveReturnsBestSoFar(t *testing.T) {
	p := chainProblem(120)
	x0 := testPoint(120, 0.7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelAfterRec{after: 2, cancel: cancel}
	res, err := SolveCtx(ctx, p, x0, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Cancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	if res.Outer < 2 {
		t.Fatalf("outer = %d, want >= 2 (cancellation fired after the 2nd outer event)", res.Outer)
	}
	if len(res.X) != p.N {
		t.Fatalf("len(X) = %d, want %d", len(res.X), p.N)
	}
	for i, v := range res.X {
		if v-v != 0 {
			t.Fatalf("x[%d] = %v is not finite", i, v)
		}
	}
	// The interrupted iterate must be no worse a start than x0: resolve
	// from it and confirm convergence to the same optimum.
	full, err := Solve(p, x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := Solve(p, res.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cont.Status != Converged && cont.Status != full.Status {
		t.Fatalf("continuation status = %v, full-run status = %v", cont.Status, full.Status)
	}
	if !approx(cont.F, full.F, 1e-5) {
		t.Fatalf("continuation F = %v, full-run F = %v", cont.F, full.F)
	}
}

// TestCheckpointResumeBitIdentical is the tentpole's resume guarantee:
// a solve that is stopped after k outer iterations and resumed from its
// checkpoint must finish with exactly the result of the uninterrupted
// run — every deterministic Result field equal, the iterate bit for
// bit.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, m := range []Method{LBFGS, NewtonCG} {
		t.Run(m.String(), func(t *testing.T) {
			p := chainProblem(90)
			x0 := testPoint(90, 1.1)
			opt := Options{Method: m}

			full, err := Solve(p, x0, opt)
			if err != nil {
				t.Fatal(err)
			}
			if full.Outer < 3 {
				t.Fatalf("full run finished in %d outer iterations; the fixture is too easy to interrupt", full.Outer)
			}

			// Interrupted leg: checkpoint every iteration, stop after 3.
			ckPath := filepath.Join(t.TempDir(), "alm.ckpt")
			optCk := opt
			optCk.CheckpointPath = ckPath
			optCk.MaxOuter = 3
			if _, err := Solve(p, x0, optCk); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}

			// Resumed leg: restart from the checkpoint with the original
			// budget. x0 is deliberately garbage — resume must not need it.
			optRes := opt
			optRes.Resume = ck
			resumed, err := Solve(p, make([]float64, p.N), optRes)
			if err != nil {
				t.Fatal(err)
			}

			if resumed.Status != full.Status {
				t.Errorf("status: resumed %v, full %v", resumed.Status, full.Status)
			}
			if resumed.Outer != full.Outer || resumed.Inner != full.Inner {
				t.Errorf("iterations: resumed %d/%d, full %d/%d",
					resumed.Outer, resumed.Inner, full.Outer, full.Inner)
			}
			if resumed.FuncEvals != full.FuncEvals || resumed.ObjEvals != full.ObjEvals {
				t.Errorf("evals: resumed %d/%d, full %d/%d",
					resumed.FuncEvals, resumed.ObjEvals, full.FuncEvals, full.ObjEvals)
			}
			if resumed.F != full.F {
				t.Errorf("F: resumed %v, full %v (must be bit-identical)", resumed.F, full.F)
			}
			for i := range full.X {
				if resumed.X[i] != full.X[i] {
					t.Fatalf("x[%d]: resumed %v, full %v (must be bit-identical)",
						i, resumed.X[i], full.X[i])
				}
			}
			for i := range full.LambdaEq {
				if resumed.LambdaEq[i] != full.LambdaEq[i] {
					t.Fatalf("lamEq[%d] differs after resume", i)
				}
			}
			for i := range full.LambdaIneq {
				if resumed.LambdaIneq[i] != full.LambdaIneq[i] {
					t.Fatalf("lamIneq[%d] differs after resume", i)
				}
			}
		})
	}
}

// TestCheckpointWrittenOnCancel: a cancelled solve with a checkpoint
// path must leave a loadable, dimension-consistent checkpoint behind.
func TestCheckpointWrittenOnCancel(t *testing.T) {
	p := chainProblem(60)
	ckPath := filepath.Join(t.TempDir(), "cancel.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelAfterRec{after: 1, cancel: cancel}
	res, err := SolveCtx(ctx, p, testPoint(60, 0.2), Options{
		Recorder: rec, CheckpointPath: ckPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Cancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("no loadable checkpoint after cancel: %v", err)
	}
	if err := ck.validate(p); err != nil {
		t.Fatalf("checkpoint invalid: %v", err)
	}
	// The resumed run must complete from it.
	opt := Options{Resume: ck}
	resumed, err := Solve(p, make([]float64, p.N), opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Status.Failed() {
		t.Fatalf("resumed status = %v", resumed.Status)
	}
}

func TestCheckpointRoundTripExactFloats(t *testing.T) {
	p := chainProblem(30)
	path := filepath.Join(t.TempDir(), "rt.ckpt")
	ck := &Checkpoint{
		Outer: 7, Inner: 123, FuncEvals: 456, ObjEvals: 7,
		Recoveries: 2, RungRecoveries: 1, Rung: 1, FailStreak: 1,
		Rho: 1e3, Omega: 1.0 / 3.0, Eta: math.Nextafter(0.1, 1),
		X:     testPoint(30, 0.9),
		XSafe: testPoint(30, 1.9), HaveSafe: true,
		LamEq:   make([]float64, len(p.EqCons)),
		LamIneq: make([]float64, len(p.IneqCons)),
	}
	for i := range ck.LamEq {
		ck.LamEq[i] = 1.0 / float64(3+i)
	}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outer != ck.Outer || got.Rung != ck.Rung || got.HaveSafe != ck.HaveSafe {
		t.Fatalf("counters differ: %+v vs %+v", got, ck)
	}
	if got.Rho != ck.Rho || got.Omega != ck.Omega || got.Eta != ck.Eta {
		t.Fatalf("schedule floats not bit-identical: %v/%v/%v vs %v/%v/%v",
			got.Rho, got.Omega, got.Eta, ck.Rho, ck.Omega, ck.Eta)
	}
	for i := range ck.X {
		if got.X[i] != ck.X[i] || got.XSafe[i] != ck.XSafe[i] {
			t.Fatalf("iterate float %d not bit-identical through JSON", i)
		}
	}
	for i := range ck.LamEq {
		if got.LamEq[i] != ck.LamEq[i] {
			t.Fatalf("lamEq[%d] not bit-identical through JSON", i)
		}
	}
	if err := got.validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointValidateRejectsMismatch(t *testing.T) {
	p := chainProblem(30)
	ck := &Checkpoint{
		Outer: 1, Rho: 10,
		X:     make([]float64, 12), // wrong dimension
		LamEq: make([]float64, len(p.EqCons)), LamIneq: make([]float64, len(p.IneqCons)),
	}
	if err := ck.validate(p); err == nil {
		t.Fatal("validate accepted a checkpoint with the wrong dimension")
	}
	ck.X = make([]float64, p.N)
	ck.Rho = -1
	if err := ck.validate(p); err == nil {
		t.Fatal("validate accepted a non-positive penalty")
	}
}

func TestResumeRejectsForeignRung(t *testing.T) {
	p := chainProblem(30)
	ck := &Checkpoint{
		Outer: 1, Rho: 10, Rung: 2, // NewtonCG ladder rung on an LBFGS solve
		X:     make([]float64, p.N),
		LamEq: make([]float64, len(p.EqCons)), LamIneq: make([]float64, len(p.IneqCons)),
	}
	_, err := Solve(p, make([]float64, p.N), Options{Method: LBFGS, Resume: ck})
	if err == nil {
		t.Fatal("Solve accepted a checkpoint rung outside the method's ladder")
	}
}

func TestSaveCheckpointAtomic(t *testing.T) {
	// Save over an existing file must either fully replace it or leave
	// it intact — never truncate. Simulate by saving twice and checking
	// the temp file is cleaned up.
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	ck := &Checkpoint{Outer: 1, Rho: 10, X: []float64{1, 2}}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	ck.Outer = 2
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outer != 2 {
		t.Fatalf("Outer = %d after overwrite, want 2", got.Outer)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The overwrite keeps exactly two files: the new checkpoint and
	// the previous good version as .bak. No temp files survive.
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "a.ckpt" || names[1] != "a.ckpt.bak" {
		t.Fatalf("dir after overwrite = %v, want [a.ckpt a.ckpt.bak]", names)
	}
	bak, err := LoadCheckpoint(path + ".bak")
	if err != nil {
		t.Fatal(err)
	}
	if bak.Outer != 1 {
		t.Fatalf("backup Outer = %d, want previous version 1", bak.Outer)
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("LoadCheckpoint accepted garbage")
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error = %v, want fs.ErrNotExist", err)
	}
}
