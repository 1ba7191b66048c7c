// Package sizing implements the paper's contribution: gate sizing
// under the statistical delay model, formulated as a nonlinear program
// and solved with the augmented-Lagrangian package internal/nlp (the
// module's LANCELOT substitute).
//
// Two formulations are provided.
//
// The full-space formulation is the paper's equation 17/18 verbatim:
// every gate contributes its speed factor, mean delay, delay variance,
// arrival mean and arrival variance as problem variables, every
// two-operand stochastic max contributes an auxiliary moment pair, and
// all relations (bilinear delay equation 15, sigma model, arrival
// addition, max moments) are equality constraints with exact analytic
// first and second derivatives. This is what LANCELOT wants to see:
// many sparse elements.
//
// The reduced formulation eliminates every equality constraint by
// construction: the only variables are the speed factors, the circuit
// moments are computed by the SSTA forward sweep, and gradients come
// from the exact adjoint sweep. It solves the same mathematical
// problem (the eliminated constraints hold identically) at a fraction
// of the cost and is what the Table 1 scale experiments use.
package sizing

import (
	"context"
	"fmt"
	"time"

	"repro/internal/delay"
	"repro/internal/nlp"
	"repro/internal/ssta"
	"repro/internal/telemetry"
)

// ObjectiveKind enumerates the paper's objective families.
type ObjectiveKind int

// Objective kinds.
const (
	// ObjMuPlusKSigma minimizes muTmax + K*sigmaTmax (K = 0 gives the
	// pure mean-delay objective).
	ObjMuPlusKSigma ObjectiveKind = iota
	// ObjArea minimizes the sum of speed factors, the paper's area
	// measure (section 4 notes area and power both scale linearly
	// with the sizing factor).
	ObjArea
	// ObjSigma minimizes sigmaTmax (paper Table 2).
	ObjSigma
	// ObjNegSigma maximizes sigmaTmax (paper Table 2).
	ObjNegSigma
	// ObjWeightedArea minimizes a weighted sum of speed factors; with
	// activity-times-capacitance weights (internal/power) this models
	// switching power, as the paper's section 4 suggests. Weights
	// come from Spec.Weights.
	ObjWeightedArea
)

// Objective selects what to minimize.
type Objective struct {
	Kind ObjectiveKind
	K    float64 // only for ObjMuPlusKSigma
}

func (o Objective) String() string {
	switch o.Kind {
	case ObjMuPlusKSigma:
		switch o.K {
		case 0:
			return "min mu"
		case 1:
			return "min mu+sigma"
		default:
			return fmt.Sprintf("min mu+%gsigma", o.K)
		}
	case ObjArea:
		return "min area"
	case ObjSigma:
		return "min sigma"
	case ObjNegSigma:
		return "max sigma"
	case ObjWeightedArea:
		return "min weighted area"
	default:
		return fmt.Sprintf("Objective(%d)", int(o.Kind))
	}
}

// MinMu returns the mean-delay objective.
func MinMu() Objective { return Objective{Kind: ObjMuPlusKSigma, K: 0} }

// MinMuPlusKSigma returns the mu + k*sigma objective.
func MinMuPlusKSigma(k float64) Objective { return Objective{Kind: ObjMuPlusKSigma, K: k} }

// MinArea returns the sum-of-speed-factors objective.
func MinArea() Objective { return Objective{Kind: ObjArea} }

// MinSigma returns the minimize-sigma objective.
func MinSigma() Objective { return Objective{Kind: ObjSigma} }

// MaxSigma returns the maximize-sigma objective.
func MaxSigma() Objective { return Objective{Kind: ObjNegSigma} }

// MinWeightedArea returns the weighted-area objective; the weights
// come from Spec.Weights (indexed by NodeID).
func MinWeightedArea() Objective { return Objective{Kind: ObjWeightedArea} }

// ConstraintKind enumerates the paper's timing-constraint families.
type ConstraintKind int

// Constraint kinds.
const (
	// ConMuPlusKSigmaLE requires muTmax + K*sigmaTmax <= Bound; with
	// K = 0 this is the plain mean-delay constraint, with K = 1 or 3
	// the paper's yield-targeting constraints (84.1% and 99.8%).
	ConMuPlusKSigmaLE ConstraintKind = iota
	// ConMuEQ pins muTmax = Bound exactly (paper Table 2's fixed-mean
	// sigma exploration).
	ConMuEQ
)

// Constraint is one timing constraint of the sizing problem.
type Constraint struct {
	Kind  ConstraintKind
	K     float64
	Bound float64
}

func (c Constraint) String() string {
	switch c.Kind {
	case ConMuPlusKSigmaLE:
		if c.K == 0 {
			return fmt.Sprintf("mu <= %g", c.Bound)
		}
		return fmt.Sprintf("mu+%gsigma <= %g", c.K, c.Bound)
	case ConMuEQ:
		return fmt.Sprintf("mu = %g", c.Bound)
	default:
		return fmt.Sprintf("Constraint(%d)", int(c.Kind))
	}
}

// DelayLE returns the constraint muTmax + k*sigmaTmax <= bound.
func DelayLE(k, bound float64) Constraint {
	return Constraint{Kind: ConMuPlusKSigmaLE, K: k, Bound: bound}
}

// MuEQ returns the constraint muTmax = bound.
func MuEQ(bound float64) Constraint {
	return Constraint{Kind: ConMuEQ, Bound: bound}
}

// Formulation selects between the two problem constructions.
type Formulation int

// Formulations.
const (
	// Reduced eliminates all equality constraints via the SSTA
	// forward/adjoint sweeps; variables are speed factors only.
	Reduced Formulation = iota
	// FullSpace is the paper's equation 17/18 with explicit moment
	// variables and equality constraints.
	FullSpace
)

func (f Formulation) String() string {
	switch f {
	case Reduced:
		return "reduced"
	case FullSpace:
		return "full-space"
	default:
		return fmt.Sprintf("Formulation(%d)", int(f))
	}
}

// DelayForm selects how the full-space formulation writes the gate
// delay equality — the paper's eq 14 vs eq 15 ablation.
type DelayForm int

// Delay equation forms.
const (
	// Bilinear is the paper's eq 15: multiply eq 14 through by S so
	// the constraint is bilinear, "fewer nonlinear terms to deal
	// with" (the paper credits this reformulation with improving
	// LANCELOT's efficiency).
	Bilinear DelayForm = iota
	// Division is the raw eq 14 with the 1/S term kept, provided to
	// measure what the reformulation buys.
	Division
)

func (d DelayForm) String() string {
	switch d {
	case Bilinear:
		return "bilinear"
	case Division:
		return "division"
	default:
		return fmt.Sprintf("DelayForm(%d)", int(d))
	}
}

// Spec describes one sizing run.
type Spec struct {
	Objective   Objective
	Constraints []Constraint
	Formulation Formulation
	// DelayForm selects eq 15 (Bilinear, default) or eq 14 (Division)
	// in the full-space formulation; the reduced formulation has no
	// delay constraints and ignores it.
	DelayForm DelayForm
	// Solver tunes the NLP solver; zero value = defaults (LBFGS for
	// Reduced, NewtonCG works only with FullSpace, which has exact
	// element Hessians).
	Solver nlp.Options
	// Start optionally provides initial speed factors indexed by
	// NodeID; nil starts from all ones.
	Start []float64
	// Weights holds per-gate objective weights (indexed by NodeID)
	// for ObjWeightedArea; see internal/power for power weights. When
	// set it needs one finite, non-negative weight per node.
	Weights []float64
	// Workers is ignored: the NLP element engine and the SSTA sweeps
	// inside the elements are serial. The field stays so callers
	// written against the former worker-count option (the benchmark
	// module among them) still build.
	Workers int
	// Recorder, when non-nil, receives run telemetry: the NLP solver's
	// iteration events and engine counters (threaded through as
	// nlp.Options.Recorder unless Solver.Recorder is set explicitly),
	// the SSTA sweep spans of the reduced formulation, and a final
	// "sizing.result" event. Nil disables instrumentation at zero cost.
	Recorder telemetry.Recorder
	// WrapProblem, when non-nil, receives the assembled NLP problem
	// immediately before the solve and the solve runs on its return
	// value. It is the fault-injection seam: the chaos and service
	// acceptance tests thread internal/faults.Wrap through it to
	// script deterministic in-solve failures. The wrapper must return
	// a problem of identical shape (same N, bounds and constraint
	// counts). The greedy sizer does not build an NLP problem and is
	// unaffected.
	WrapProblem func(*nlp.Problem) *nlp.Problem
}

// Outcome reports a sizing run in the units of the paper's tables.
type Outcome struct {
	// S holds the optimized speed factors indexed by NodeID.
	S []float64
	// MuTmax and SigmaTmax are the statistical circuit delay moments
	// at S.
	MuTmax, SigmaTmax float64
	// SumS is the paper's area measure.
	SumS float64
	// Solver carries the raw NLP result.
	Solver *nlp.Result
	// Fallback reports that the NLP solver returned NumericalFailure
	// and S instead comes from the greedy sensitivity sizer — a valid
	// if conservative sizing, the bottom of the degradation ladder.
	Fallback bool
	// Runtime is the wall-clock solve time (the paper's CPU column).
	Runtime time.Duration
}

// perturbStart nudges a unit starting point with a small
// deterministic, gate-dependent offset. Maximizing the circuit sigma
// from a perfectly symmetric start is hopeless on symmetric circuits:
// gradient methods preserve the symmetry and converge to the best
// *symmetric* point, while the true maximum unbalances the paths (the
// paper's Table 3 max-sigma row differentiates gates A and B). The
// perturbation lets the optimizer pick a dominant path; which path
// wins is arbitrary, exactly as in the paper, where the choice among
// symmetric optima is the solver's.
func perturbStart(x0 []float64, limit float64) {
	span := 0.05 * (limit - 1)
	for i := range x0 {
		x0[i] += span * float64((i*2654435761)%97) / 97.0
	}
}

// Size solves the sizing problem described by spec on the model
// without a cancellation context; see SizeCtx.
func Size(m *delay.Model, spec Spec) (*Outcome, error) {
	return SizeCtx(context.Background(), m, spec)
}

// SizeCtx solves the sizing problem described by spec on the model
// under ctx. Cancellation propagates into the NLP solver's iteration
// boundaries: a cancelled run returns the best-so-far sizing with
// Outcome.Solver.Status reporting Cancelled or DeadlineExceeded. When
// the solver exhausts its numerical-recovery budget (NumericalFailure)
// and the spec carries a mu+K*sigma deadline, the greedy sensitivity
// sizer runs as the final fallback so the run still produces a valid
// sizing; Outcome.Fallback flags it.
func SizeCtx(ctx context.Context, m *delay.Model, spec Spec) (*Outcome, error) {
	if err := spec.validate(m); err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		res *nlp.Result
		S   []float64
		err error
	)
	switch spec.Formulation {
	case Reduced:
		res, S, err = solveReduced(ctx, m, spec)
	case FullSpace:
		res, S, err = solveFullSpace(ctx, m, spec)
	default:
		return nil, fmt.Errorf("sizing: unknown formulation %v", spec.Formulation)
	}
	if err != nil {
		return nil, err
	}
	fallback := false
	if res.Status == nlp.NumericalFailure {
		if gr := greedyFallback(ctx, m, spec); gr != nil {
			S = gr.S
			fallback = true
		}
	}
	m.ClampSizes(S)
	r := ssta.Analyze(m, S, false)
	out := &Outcome{
		S:         S,
		MuTmax:    r.Tmax.Mu,
		SigmaTmax: r.Tmax.Sigma(),
		SumS:      m.SumSizes(S),
		Solver:    res,
		Fallback:  fallback,
		Runtime:   time.Since(start),
	}
	if rec := spec.Recorder; rec != nil {
		fb := 0.0
		if fallback {
			fb = 1
		}
		rec.Event("sizing", "result",
			telemetry.F("mu", out.MuTmax),
			telemetry.F("sigma", out.SigmaTmax),
			telemetry.F("area", out.SumS),
			telemetry.I("status", int(res.Status)),
			telemetry.I("outer", res.Outer),
			telemetry.I("inner", res.Inner),
			telemetry.F("fallback", fb),
		)
		rec.Span("sizing.total", out.Runtime)
	}
	return out, nil
}

// validate rejects a spec the formulations would panic on or absorb
// into the solve on model m: non-finite risk factors or bounds, a
// weight vector that is not one finite, non-negative weight per node,
// and a speed limit that is not finite and at least 1.
func (spec *Spec) validate(m *delay.Model) error {
	if err := checkLimit(m.Limit); err != nil {
		return err
	}
	if !isFinite(spec.Objective.K) {
		return fmt.Errorf("sizing: objective risk factor must be finite, got %v", spec.Objective.K)
	}
	for _, c := range spec.Constraints {
		if !isFinite(c.K) || !isFinite(c.Bound) {
			return fmt.Errorf("sizing: constraint %v must have a finite risk factor and bound", c)
		}
	}
	return checkWeights(spec.Weights, len(m.G.C.Nodes))
}

// GreedyFromSpec derives the greedy sizer's options from a spec: the
// target comes from the spec's first mu+K*sigma deadline, and the
// workers, recorder and objective weights carry over — so a
// power-weighted spec degrading to greedy still optimizes the weighted
// metric. The second return is false when the spec carries no
// ConMuPlusKSigmaLE constraint (the heuristic needs a deadline).
func GreedyFromSpec(spec Spec) (GreedyOptions, bool) {
	for _, c := range spec.Constraints {
		if c.Kind != ConMuPlusKSigmaLE {
			continue
		}
		return GreedyOptions{
			K: c.K, Deadline: c.Bound,
			Workers:  spec.Workers,
			Weights:  spec.Weights,
			Recorder: spec.Recorder,
		}, true
	}
	return GreedyOptions{}, false
}

// greedyFallback runs the TILOS-style sensitivity sizer against the
// spec's first mu+K*sigma deadline after an NLP NumericalFailure. It
// returns nil when the spec has no such deadline (the heuristic needs
// a target) or the greedy run itself fails.
func greedyFallback(ctx context.Context, m *delay.Model, spec Spec) *GreedyResult {
	opt, ok := GreedyFromSpec(spec)
	if !ok {
		return nil
	}
	gr, err := SizeGreedyCtx(ctx, m, opt)
	if err != nil {
		return nil
	}
	if rec := spec.Recorder; rec != nil {
		rec.Event("sizing", "fallback",
			telemetry.F("k", opt.K),
			telemetry.F("deadline", opt.Deadline),
			telemetry.I("steps", gr.Steps),
		)
	}
	return gr
}
