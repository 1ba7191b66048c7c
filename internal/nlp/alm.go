package nlp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/telemetry"
)

// Method selects the inner bound-constrained minimizer.
type Method int

// Inner solver methods.
const (
	// LBFGS is a projected limited-memory BFGS method needing only
	// first derivatives.
	LBFGS Method = iota
	// NewtonCG is a truncated Newton conjugate-gradient method using
	// exact element Hessians, the LANCELOT-style second-order path.
	NewtonCG
	// ProjGrad is projected steepest descent with Armijo backtracking:
	// the slowest but most robust inner method, and the bottom rung of
	// the degradation ladder. It never consults curvature, so no
	// history can be poisoned by a transient numerical failure.
	ProjGrad
)

func (m Method) String() string {
	switch m {
	case LBFGS:
		return "lbfgs"
	case NewtonCG:
		return "newton-cg"
	case ProjGrad:
		return "projgrad"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Ladder returns the degradation ladder the solver walks when started
// at m: rung 0 is m itself, each later rung strictly more conservative.
// Supervisors resuming a NumericalFailure from a checkpoint consult it
// to step the Checkpoint.Rung down explicitly.
func Ladder(m Method) []Method { return ladderFor(m) }

// ladderFor returns the degradation ladder starting at m: each rung is
// strictly more conservative than the one before it.
func ladderFor(m Method) []Method {
	switch m {
	case NewtonCG:
		return []Method{NewtonCG, LBFGS, ProjGrad}
	case LBFGS:
		return []Method{LBFGS, ProjGrad}
	default:
		return []Method{ProjGrad}
	}
}

// Options tunes the solver. The zero value is usable: it selects
// LBFGS with the default tolerances.
type Options struct {
	Method Method
	// TolGrad is the convergence threshold on the projected gradient
	// infinity norm (default 1e-6).
	TolGrad float64
	// TolCon is the feasibility threshold on the constraint infinity
	// norm (default 1e-6).
	TolCon float64
	// MaxOuter bounds augmented-Lagrangian outer iterations
	// (default 50).
	MaxOuter int
	// MaxInner bounds iterations per inner minimization
	// (default 500).
	MaxInner int
	// RhoInit is the initial penalty parameter (default 10).
	RhoInit float64
	// RhoMax caps the penalty parameter (default 1e9).
	RhoMax float64
	// Memory is the number of L-BFGS correction pairs (default 10).
	Memory int
	// Workers bounds the worker goroutines of the element evaluation
	// engine: <= 0 uses one per CPU, 1 forces serial evaluation.
	// Results are bit-for-bit identical for every worker count — the
	// engine folds all accumulations in serial element order. When
	// Workers permits parallelism (and the problem has at least
	// engineMinElements elements), Eval/Grad/Hess callbacks of
	// *distinct* elements may run concurrently, so elements must not
	// share mutable state; one element's callbacks are never invoked
	// concurrently with each other.
	Workers int
	// RecoveryBudget bounds the automatic non-finite recovery attempts
	// per ladder rung (default 5). When a merit or gradient evaluation
	// at an accepted iterate turns out NaN/Inf, the solver restores the
	// last finite iterate, relaxes the penalty and retries; once the
	// budget is exhausted it steps down the degradation ladder, and
	// only with no rung left does it return NumericalFailure.
	RecoveryBudget int
	// CheckpointPath, when non-empty, makes the solver serialize its
	// resumable state (iterate, multipliers, penalty, counters) to this
	// file — atomically, via a temp file and rename — every
	// CheckpointEvery completed outer iterations and on cancellation.
	CheckpointPath string
	// CheckpointEvery is the outer-iteration interval between
	// checkpoint writes (default 1).
	CheckpointEvery int
	// Resume, when non-nil, restores the solver state captured by a
	// previous run's checkpoint before iterating. A resumed solve is
	// bit-identical to the uninterrupted one: every Result field except
	// the wall-clock durations matches exactly.
	Resume *Checkpoint
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Recorder, when non-nil, receives solver telemetry: one "alm.outer"
	// event per outer iteration (merit, KKT residual, constraint
	// violation, penalty, step norm), one "lbfgs.iter" / "newton.iter"
	// event per inner iteration, "alm.recover" / "alm.degrade" events
	// from the resilience layer, and the engine's evaluation counters
	// and dispatch timings at the end of the solve. Event content is
	// deterministic: traces are byte-identical for every Workers value.
	// A nil Recorder costs one branch and zero allocations per
	// instrumentation point.
	Recorder telemetry.Recorder
}

func (o Options) withDefaults() Options {
	if o.TolGrad == 0 {
		o.TolGrad = 1e-6
	}
	if o.TolCon == 0 {
		o.TolCon = 1e-6
	}
	if o.MaxOuter == 0 {
		o.MaxOuter = 50
	}
	if o.MaxInner == 0 {
		o.MaxInner = 500
	}
	if o.RhoInit == 0 {
		o.RhoInit = 10
	}
	if o.RhoMax == 0 {
		o.RhoMax = 1e9
	}
	if o.Memory == 0 {
		o.Memory = 10
	}
	if o.RecoveryBudget == 0 {
		o.RecoveryBudget = 5
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	return o
}

// Status reports how the solver terminated.
type Status int

// Solver termination statuses. The integer values are stable: traces
// record them, so new statuses are appended, never reordered.
const (
	// Converged: KKT conditions met to tolerance.
	Converged Status = iota
	// MaxIterations: the outer iteration budget ran out.
	MaxIterations
	// Stalled: no further progress was possible (line-search failure
	// at the final tolerances), the result may still be usable.
	Stalled
	// Cancelled: the context was cancelled mid-solve; X carries the
	// best iterate reached before the cancellation was observed.
	Cancelled
	// DeadlineExceeded: the context deadline passed mid-solve; X
	// carries the best iterate reached before the deadline.
	DeadlineExceeded
	// NumericalFailure: non-finite merit/gradient values persisted
	// through the recovery budget on every rung of the degradation
	// ladder. X carries the last finite iterate.
	NumericalFailure
)

func (s Status) String() string {
	switch s {
	case Converged:
		return "converged"
	case MaxIterations:
		return "max iterations"
	case Stalled:
		return "stalled"
	case Cancelled:
		return "cancelled"
	case DeadlineExceeded:
		return "deadline exceeded"
	case NumericalFailure:
		return "numerical failure"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Failed reports whether the status means the solve did not run to a
// normal completion: cancelled, past its deadline, or numerically
// broken. The iterate in Result.X is still the best one available.
func (s Status) Failed() bool {
	switch s {
	case Cancelled, DeadlineExceeded, NumericalFailure:
		return true
	}
	return false
}

// Result is the solver output.
type Result struct {
	X      []float64
	F      float64 // objective (not merit) value at X
	Status Status
	// Method is the inner method that produced the final iterate; it
	// differs from Options.Method when the degradation ladder stepped
	// down.
	Method Method
	// Outer and Inner count outer iterations and total inner
	// iterations.
	Outer, Inner int
	// Recoveries counts non-finite recovery events (alm.recover) over
	// the whole solve.
	Recoveries int
	// ProjGradNorm is the final projected-gradient infinity norm of
	// the augmented Lagrangian.
	ProjGradNorm float64
	// MaxViolation is the final constraint violation infinity norm.
	MaxViolation float64
	// LambdaEq and LambdaIneq are the final multiplier estimates.
	LambdaEq, LambdaIneq []float64
	// FuncEvals counts full merit (augmented-Lagrangian) evaluations:
	// each one evaluates every element of the problem exactly once.
	// Element gradients are computed at accepted points only — each
	// inner solve's starting point and every step the line search
	// accepts — never at a rejected trial. It is the paper's "function
	// evaluations" cost measure for the inner solvers.
	FuncEvals int
	// ObjEvals counts raw-objective-only evaluations (objective
	// elements, no constraints): the outer loop's progress logging and
	// the final F report. These were silently uncounted before the
	// counters were split; they are deliberately *not* part of
	// FuncEvals, which would overstate the merit cost.
	ObjEvals int
	// Duration is the total Solve wall time; SetupTime covers
	// validation plus engine/arena construction, InnerTime the time
	// spent inside the inner minimizations. The remainder is the outer
	// loop's own bookkeeping (multiplier updates, telemetry). These are
	// wall-clock measurements and, unlike every other Result field, are
	// not deterministic across runs.
	Duration, SetupTime, InnerTime time.Duration
}

// almState carries the augmented-Lagrangian data shared between the
// outer loop and the inner minimizers. All element evaluation goes
// through the engine, which owns the arena scratch.
type almState struct {
	p        *Problem
	eng      *engine
	rho      float64
	lamEq    []float64
	lamIneq  []float64
	cEq      []float64 // constraint values at the last eval point
	cIneq    []float64
	fnEvals  int
	objEvals int
	// rec is the telemetry sink (nil = disabled); outer is the current
	// outer iteration (1-based), tagged onto inner-solver events.
	rec   telemetry.Recorder
	outer int
	// stack is the coordinating goroutine's span-tree scope stack
	// (nil when rec has no tree sink): nlp.solve > alm.outer >
	// nlp.inner phase attribution with self- vs cumulative-time split.
	stack *telemetry.Stack
	// finite reports whether the last merit evaluation produced only
	// finite values (merit, element values, gradient); badElem is the
	// serial index of the first offending element, -1 when none. Both
	// are refreshed by every merit call.
	finite  bool
	badElem int
	// done is the solve context's cancellation channel (nil when the
	// context cannot be cancelled); stopped latches the first observed
	// cancellation. Polling is a single non-blocking select, so the
	// iteration-boundary checks stay allocation-free.
	done    <-chan struct{}
	stopped bool
}

func newALMState(p *Problem, rho float64, workers int, rec telemetry.Recorder) *almState {
	s := &almState{
		p:       p,
		rho:     rho,
		lamEq:   make([]float64, len(p.EqCons)),
		lamIneq: make([]float64, len(p.IneqCons)),
		cEq:     make([]float64, len(p.EqCons)),
		cIneq:   make([]float64, len(p.IneqCons)),
		rec:     rec,
		stack:   telemetry.NewStack(rec),
		finite:  true,
		badElem: -1,
	}
	s.eng = newEngine(p, s, workers)
	return s
}

// stop reports whether the solve's context has been cancelled. It is
// called at outer- and inner-iteration boundaries only; the engine's
// compute phases always run to their barrier, so a cancelled solve
// still holds a consistent state.
func (s *almState) stop() bool {
	if s.stopped {
		return true
	}
	if s.done == nil {
		return false
	}
	select {
	case <-s.done:
		s.stopped = true
		return true
	default:
		return false
	}
}

// objective returns the raw objective value at x.
func (s *almState) objective(x []float64) float64 {
	s.objEvals++
	e := s.eng
	e.x = x
	e.dispatch(modeObjEval)
	var f float64
	for i := 0; i < e.nObj; i++ {
		f += e.refs[i].val
	}
	return f
}

// merit evaluates the augmented Lagrangian at x and, when grad is
// non-nil, its gradient through meritGrad at the same point (grad is
// overwritten). Constraint values are cached in cEq / cIneq for the
// outer loop.
//
// The engine computes element values in parallel; the fold below
// accumulates phi in exact serial element order, so the result is
// bit-identical for any worker count. The fold also fixes each
// element's gradient weight w (the ALM chain-rule factor), which the
// gradient dispatch uses to skip elements that cannot contribute —
// inactive inequalities exactly as the serial code always did.
//
// The fold doubles as the solver's non-finite guard: every element
// value and phi are screened with the x-x != 0 trick (true exactly for
// NaN and ±Inf), setting s.finite / s.badElem without branching into
// any allocation.
func (s *almState) merit(x []float64, grad []float64) float64 {
	s.fnEvals++
	s.finite, s.badElem = true, -1
	e := s.eng
	e.x = x
	e.dispatch(modeEval)
	var phi float64
	for i := range e.refs {
		r := &e.refs[i]
		if r.val-r.val != 0 {
			// NaN or ±Inf element value; an inactive inequality would
			// otherwise hide it from phi.
			if s.badElem < 0 {
				s.finite, s.badElem = false, i
			}
		}
		switch r.kind {
		case elObjective:
			phi += r.val
			r.w = 1
		case elEquality:
			c := r.val
			s.cEq[r.ci] = c
			phi += s.lamEq[r.ci]*c + 0.5*s.rho*c*c
			// The ALM gradient weight is lambda + rho*c.
			r.w = s.lamEq[r.ci] + s.rho*c
		case elInequality:
			c := r.val
			s.cIneq[r.ci] = c
			lam := s.lamIneq[r.ci]
			if m := lam + s.rho*c; m > 0 {
				phi += (m*m - lam*lam) / (2 * s.rho)
				r.w = m
			} else {
				phi += -lam * lam / (2 * s.rho)
				r.w = 0
			}
		}
	}
	if phi-phi != 0 {
		s.finite = false
	}
	if grad != nil {
		s.meritGrad(grad)
	}
	return phi
}

// meritGrad is the gradient fold of the augmented Lagrangian at the
// last merit point, written into grad. It must follow that merit call
// with no other element evaluation in between: each element's Grad
// runs at the point of its latest Eval (the reduced sweep elements
// answer Grad with one adjoint over the tape Eval left warm), and the
// scatter weights come from the value fold. The scatter runs in exact
// serial element order, like the value fold. A non-finite gradient
// clears s.finite.
func (s *almState) meritGrad(grad []float64) {
	e := s.eng
	e.dispatch(modeGrad)
	for i := range grad {
		grad[i] = 0
	}
	for i := range e.refs {
		r := &e.refs[i]
		if r.w == 0 {
			continue
		}
		lg := e.slabG[r.off : r.off+r.n]
		for k, v := range r.el.Vars {
			grad[v] += r.w * lg[k]
		}
	}
	// One accumulation pass detects any non-finite gradient entry: a
	// NaN/Inf component makes the sum non-finite (a finite overflow
	// would too, and such a gradient is equally unusable).
	var acc float64
	for _, g := range grad {
		acc += g
	}
	if acc-acc != 0 {
		s.finite = false
	}
}

// violation returns the constraint infinity norm at the last merit
// evaluation point (equalities: |c|; inequalities: max(0, c)).
func (s *almState) violation() float64 {
	var v float64
	for _, c := range s.cEq {
		if a := math.Abs(c); a > v {
			v = a
		}
	}
	for _, c := range s.cIneq {
		if c > v {
			v = c
		}
	}
	return v
}

// projGradNorm returns the infinity norm of the projected gradient:
// the gradient with components pointing out of the box zeroed.
func projGradNorm(p *Problem, x, grad []float64) float64 {
	var norm float64
	for i := range x {
		g := grad[i]
		if x[i] <= p.lower(i)+1e-12 && g > 0 {
			continue
		}
		if x[i] >= p.upper(i)-1e-12 && g < 0 {
			continue
		}
		if a := math.Abs(g); a > norm {
			norm = a
		}
	}
	return norm
}

// Solve runs the augmented-Lagrangian method from x0 without a
// cancellation context; see SolveCtx.
func Solve(p *Problem, x0 []float64, opt Options) (*Result, error) {
	return SolveCtx(context.Background(), p, x0, opt)
}

// SolveCtx runs the augmented-Lagrangian method from x0 under ctx.
// Cancellation is polled at outer- and inner-iteration boundaries
// (never mid-evaluation, so the zero-allocation hot paths are
// untouched); a cancelled run returns a Result with the Cancelled or
// DeadlineExceeded status and the best iterate reached, not an error.
func SolveCtx(ctx context.Context, p *Problem, x0 []float64, opt Options) (*Result, error) {
	t0 := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(x0) != p.N {
		return nil, fmt.Errorf("nlp: x0 has length %d, want %d", len(x0), p.N)
	}
	opt = opt.withDefaults()
	if opt.Method == NewtonCG && !p.HasHessians() {
		return nil, fmt.Errorf("nlp: NewtonCG requires Hessians on every element")
	}

	x := append([]float64(nil), x0...)
	p.project(x)

	st := newALMState(p, opt.RhoInit, opt.Workers, opt.Recorder)
	defer st.eng.close()
	st.done = ctx.Done()
	res := &Result{}
	rec := opt.Recorder
	// xPrev backs the per-outer step norm; allocated only when someone
	// is listening.
	var xPrev []float64
	if rec != nil || opt.Logf != nil {
		xPrev = make([]float64, len(x))
	}
	// xSafe holds the last iterate whose merit evaluated finite: the
	// restore point of the non-finite recovery path.
	xSafe := make([]float64, len(x))
	haveSafe := false

	constrained := len(p.EqCons)+len(p.IneqCons) > 0
	// LANCELOT-style tolerance schedule.
	omega := 1.0 / st.rho // inner gradient tolerance
	eta := math.Pow(st.rho, -0.1)
	if !constrained {
		omega = opt.TolGrad
	}

	// The degradation ladder: rung 0 is the requested method; repeated
	// inner failure or an exhausted recovery budget steps down.
	ladder := ladderFor(opt.Method)
	rung := 0
	failStreak := 0
	recov := 0 // recoveries on the current rung
	makeInner := func(m Method) (innerSolver, error) {
		switch m {
		case LBFGS:
			return newLBFGSSolver(p, st, opt), nil
		case NewtonCG:
			return newNewtonSolver(p, st, opt), nil
		case ProjGrad:
			return newPGSolver(p, st, opt), nil
		default:
			return nil, fmt.Errorf("nlp: unknown method %v", m)
		}
	}

	outerStart := 0
	if ck := opt.Resume; ck != nil {
		if err := ck.validate(p); err != nil {
			return nil, err
		}
		outerStart = ck.Outer
		copy(x, ck.X)
		p.project(x)
		copy(st.lamEq, ck.LamEq)
		copy(st.lamIneq, ck.LamIneq)
		st.rho = ck.Rho
		omega, eta = ck.Omega, ck.Eta
		st.fnEvals, st.objEvals = ck.FuncEvals, ck.ObjEvals
		res.Inner = ck.Inner
		res.Outer = ck.Outer
		res.Recoveries = ck.Recoveries
		recov, failStreak = ck.RungRecoveries, ck.FailStreak
		if ck.Rung > 0 {
			if ck.Rung >= len(ladder) {
				return nil, fmt.Errorf("nlp: checkpoint rung %d exceeds the %v ladder", ck.Rung, opt.Method)
			}
			rung = ck.Rung
		}
		if ck.HaveSafe {
			copy(xSafe, ck.XSafe)
			haveSafe = true
		}
	}

	inner, err := makeInner(ladder[rung])
	if err != nil {
		return nil, err
	}

	// entry snapshots the state at the top of each outer iteration: a
	// boundary-consistent resume point. Interval writes flush it after
	// every CheckpointEvery completed iterations; a cancellation —
	// which can land mid-iteration, where the live state is *not* a
	// valid boundary — flushes the entry snapshot too, so resuming
	// always replays the interrupted iteration in full and the resumed
	// run stays bit-identical to an uninterrupted one.
	var entry *Checkpoint
	if opt.CheckpointPath != "" {
		entry = &Checkpoint{
			X:     make([]float64, len(x)),
			XSafe: make([]float64, len(x)),
			LamEq: make([]float64, len(st.lamEq)), LamIneq: make([]float64, len(st.lamIneq)),
		}
	}
	captureEntry := func(next int) {
		entry.Outer, entry.Inner = next, res.Inner
		entry.FuncEvals, entry.ObjEvals = st.fnEvals, st.objEvals
		entry.Recoveries, entry.RungRecoveries = res.Recoveries, recov
		entry.Rung, entry.FailStreak = rung, failStreak
		entry.Rho, entry.Omega, entry.Eta = st.rho, omega, eta
		copy(entry.X, x)
		copy(entry.XSafe, xSafe)
		copy(entry.LamEq, st.lamEq)
		copy(entry.LamIneq, st.lamIneq)
		entry.HaveSafe = haveSafe
	}

	res.SetupTime = time.Since(t0)
	// The scope stack brackets the whole solve; each outer iteration's
	// scope closes at the top of the next (PopTo handles the body's
	// continue/break exits uniformly).
	st.stack.Push("nlp.solve")
	for outer := outerStart; outer < opt.MaxOuter; outer++ {
		st.stack.PopTo(1)
		st.stack.Push("alm.outer")
		if entry != nil {
			captureEntry(outer)
			if outer > outerStart && (outer-outerStart)%opt.CheckpointEvery == 0 {
				if err := SaveCheckpoint(opt.CheckpointPath, entry); err != nil {
					return nil, err
				}
			}
		}
		if st.stop() {
			break
		}
		res.Outer = outer + 1
		st.outer = outer + 1
		if xPrev != nil {
			copy(xPrev, x)
		}
		tol := math.Max(omega, opt.TolGrad)
		tInner := time.Now()
		st.stack.Push("nlp.inner")
		iters, pg := inner.minimize(x, tol)
		st.stack.Pop()
		res.InnerTime += time.Since(tInner)
		res.Inner += iters
		res.ProjGradNorm = pg

		// Refresh constraint caches at the solution point.
		phi := st.merit(x, nil)
		if !st.finite {
			// Non-finite merit at the accepted iterate: restore the last
			// finite point, relax the penalty, and retry under the
			// recovery budget; an exhausted budget steps down the ladder
			// before giving up with NumericalFailure.
			res.Recoveries++
			recov++
			if rec != nil {
				rec.Event("alm", "recover",
					telemetry.I("iter", outer+1),
					telemetry.I("count", res.Recoveries),
					telemetry.I("elem", st.badElem),
					telemetry.F("rho", st.rho),
				)
			}
			if opt.Logf != nil {
				opt.Logf("outer %d: non-finite merit (element %d), recovery %d",
					outer+1, st.badElem, res.Recoveries)
			}
			if haveSafe {
				copy(x, xSafe)
			}
			if recov > opt.RecoveryBudget {
				if rung+1 < len(ladder) {
					rung++
					recov, failStreak = 0, 0
					if inner, err = makeInner(ladder[rung]); err != nil {
						return nil, err
					}
					if rec != nil {
						rec.Event("alm", "degrade",
							telemetry.I("iter", outer+1),
							telemetry.I("method", int(ladder[rung])),
						)
					}
					if opt.Logf != nil {
						opt.Logf("outer %d: degrading inner solver to %v", outer+1, ladder[rung])
					}
					continue
				}
				res.Status = NumericalFailure
				break
			}
			st.rho = math.Max(opt.RhoInit, st.rho/10)
			omega = 1.0 / st.rho
			eta = math.Pow(st.rho, -0.1)
			if !constrained {
				omega = opt.TolGrad
			}
			continue
		}
		copy(xSafe, x)
		haveSafe = true
		viol := st.violation()
		res.MaxViolation = viol
		if xPrev != nil {
			// One emission point feeds the JSONL trace, the metrics
			// census and the -v verbose log alike; every field is
			// deterministic under the engine's bit-identical-parallelism
			// contract.
			f := st.objective(x)
			var step float64
			for i := range x {
				d := x[i] - xPrev[i]
				step += d * d
			}
			step = math.Sqrt(step)
			if rec != nil {
				rec.Event("alm", "outer",
					telemetry.I("iter", outer+1),
					telemetry.F("merit", phi),
					telemetry.F("kkt", pg),
					telemetry.F("viol", viol),
					telemetry.F("rho", st.rho),
					telemetry.F("step", step),
					telemetry.I("inner", iters),
					telemetry.F("f", f),
				)
			}
			if opt.Logf != nil {
				opt.Logf("outer %d: rho=%.3g viol=%.3g pg=%.3g f=%.8g",
					outer+1, st.rho, viol, pg, f)
			}
		}

		if st.stop() {
			break
		}

		// Degradation ladder on repeated inner failure: an inner solve
		// that cannot take a single step while the projected gradient
		// still exceeds tolerance has broken down (poisoned curvature,
		// non-finite Hessian products); step down to a more conservative
		// method instead of stalling out.
		if iters == 0 && pg > tol {
			failStreak++
			if rung+1 < len(ladder) && (failStreak >= 2 || !constrained) {
				rung++
				recov, failStreak = 0, 0
				if inner, err = makeInner(ladder[rung]); err != nil {
					return nil, err
				}
				if rec != nil {
					rec.Event("alm", "degrade",
						telemetry.I("iter", outer+1),
						telemetry.I("method", int(ladder[rung])),
					)
				}
				if opt.Logf != nil {
					opt.Logf("outer %d: degrading inner solver to %v", outer+1, ladder[rung])
				}
				continue
			}
		} else {
			failStreak = 0
		}

		if !constrained {
			res.Status = Converged
			if pg > opt.TolGrad {
				res.Status = Stalled
			}
			break
		}

		if viol <= math.Max(eta, opt.TolCon) {
			if viol <= opt.TolCon && pg <= opt.TolGrad {
				res.Status = Converged
				break
			}
			// First-order multiplier update.
			for i := range st.lamEq {
				st.lamEq[i] += st.rho * st.cEq[i]
			}
			for i := range st.lamIneq {
				st.lamIneq[i] = math.Max(0, st.lamIneq[i]+st.rho*st.cIneq[i])
			}
			omega /= st.rho
			eta /= math.Pow(st.rho, 0.9)
		} else {
			if st.rho >= opt.RhoMax {
				res.Status = Stalled
				break
			}
			st.rho = math.Min(st.rho*10, opt.RhoMax)
			omega = 1.0 / st.rho
			eta = math.Pow(st.rho, -0.1)
		}
		res.Status = MaxIterations
	}

	st.stack.PopTo(0) // close any open alm.outer scope and nlp.solve

	if st.stopped && res.Status != NumericalFailure {
		res.Status = Cancelled
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			res.Status = DeadlineExceeded
		}
		// Persist the boundary-consistent resume point captured at the
		// top of the interrupted iteration.
		if entry != nil {
			if err := SaveCheckpoint(opt.CheckpointPath, entry); err != nil {
				return nil, err
			}
		}
	}
	if res.Status == NumericalFailure && haveSafe {
		copy(x, xSafe)
	}

	res.X = x
	res.F = st.objective(x)
	res.Method = ladder[rung]
	res.LambdaEq = st.lamEq
	res.LambdaIneq = st.lamIneq
	res.FuncEvals = st.fnEvals
	res.ObjEvals = st.objEvals
	res.Duration = time.Since(t0)
	if rec != nil {
		rec.Event("alm", "done",
			telemetry.I("status", int(res.Status)),
			telemetry.I("outer", res.Outer),
			telemetry.I("inner", res.Inner),
			telemetry.F("f", res.F),
			telemetry.F("kkt", res.ProjGradNorm),
			telemetry.F("viol", res.MaxViolation),
			telemetry.I("fn_evals", res.FuncEvals),
			telemetry.I("obj_evals", res.ObjEvals),
			telemetry.I("recoveries", res.Recoveries),
			telemetry.I("method", int(res.Method)),
		)
		st.eng.publish(rec)
		rec.Span("nlp.solve", res.Duration)
		rec.Span("nlp.inner", res.InnerTime)
		if t := telemetry.TreeOf(rec); t != nil {
			t.AddAt(res.SetupTime, 1, "nlp.solve", "setup")
		}
	}
	return res, nil
}
