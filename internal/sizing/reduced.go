package sizing

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/ssta"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// reducedEval adapts the persistent SSTA engine to nlp.Element
// callbacks. The problem variables are the speed factors of the gates
// in dense order. Each sweep-based element owns a private engine (see
// sweepEngine), which makes every Eval/Grad a pure function of its
// local point: the NLP engine may evaluate distinct elements
// concurrently when nlp.Options.Workers permits.
type reducedEval struct {
	m       *delay.Model
	gates   []netlist.NodeID
	workers int
	// rec receives the engines' sweep spans ("ssta.forward"/
	// "ssta.adjoint") and sweep counters; the metrics sinks are
	// concurrency-safe, so recording stays correct when the NLP engine
	// evaluates distinct elements in parallel. The engines themselves
	// get no recorder: a sizing trace carries one event per solver
	// iteration, not one per element evaluation.
	rec telemetry.Recorder
}

// sweepEngine is one element's persistent SSTA engine. It is built at
// the element's first evaluation point; every later point moves it by
// one SetSizes, which no-ops on a bit-identical point and otherwise
// runs one full forward pass. A line search moves every free variable
// at once, so the changed cone is nearly the whole graph and per-gate
// dirty-cone bookkeeping would buy nothing. The engine state is
// bit-identical to a fresh taped sweep at the current point, so
// element values and gradients are bitwise those of AnalyzeCtx plus
// BackwardCtx.
type sweepEngine struct {
	re *reducedEval
	h  *ssta.Hier
}

// at moves the engine to the dense point x and returns the circuit
// delay moments. A non-finite x reports false and leaves the engine
// untouched: SetSizes rejects such sizes, and the caller answers NaN so
// the solver's finiteness guard can backtrack.
func (e *sweepEngine) at(x []float64) (stats.MV, bool) {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return stats.MV{}, false
		}
	}
	re := e.re
	var t0 time.Time
	if re.rec != nil {
		t0 = time.Now()
	}
	if e.h == nil {
		S := re.m.UnitSizes()
		for i, id := range re.gates {
			S[id] = x[i]
		}
		e.h = ssta.NewHier(re.m, S, ssta.HierOptions{Workers: re.workers})
	} else if !e.h.SetSizes(re.gates, x) {
		return e.h.Tmax(), true
	}
	if re.rec != nil {
		re.rec.Span("ssta.forward", time.Since(t0))
		re.rec.Count("ssta.forward_sweeps", 1)
	}
	return e.h.Tmax(), true
}

// grad runs one adjoint pass over the engine's tape with the given
// seed and scatters d phi/d S into the dense gradient g. The engine
// must already sit at the point (see at).
func (e *sweepEngine) grad(g []float64, seedMu, seedVar float64) {
	re := e.re
	var t0 time.Time
	if re.rec != nil {
		t0 = time.Now()
	}
	full := e.h.Backward(seedMu, seedVar)
	for i, id := range re.gates {
		g[i] = full[id]
	}
	if re.rec != nil {
		re.rec.Span("ssta.adjoint", time.Since(t0))
		re.rec.Count("ssta.adjoint_sweeps", 1)
	}
}

// nanGrad fills g with NaN: the gradient at a non-finite point.
func nanGrad(g []float64) {
	for i := range g {
		g[i] = math.NaN()
	}
}

// sigmaFloor keeps 1/sigma finite when the delay variance vanishes
// (possible only in the deterministic limit).
const sigmaFloor = 1e-9

// muKSigmaElement returns an element computing
// muTmax + k*sigmaTmax + shift over all speed factors, on its own
// engine.
func (re *reducedEval) muKSigmaElement(vars []int, k, shift float64) nlp.Element {
	e := &sweepEngine{re: re}
	return nlp.Element{
		Vars: vars,
		Eval: func(x []float64) float64 {
			t, ok := e.at(x)
			if !ok {
				return math.NaN()
			}
			if k == 0 {
				return t.Mu + shift
			}
			return t.Mu + k*math.Sqrt(t.Var) + shift
		},
		Grad: func(x []float64, g []float64) {
			t, ok := e.at(x)
			if !ok {
				nanGrad(g)
				return
			}
			if k == 0 {
				e.grad(g, 1, 0)
				return
			}
			sigma := math.Max(math.Sqrt(t.Var), sigmaFloor)
			e.grad(g, 1, k/(2*sigma))
		},
	}
}

// sigmaElement returns an element computing sign * sigmaTmax, on its
// own engine.
func (re *reducedEval) sigmaElement(vars []int, sign float64) nlp.Element {
	e := &sweepEngine{re: re}
	return nlp.Element{
		Vars: vars,
		Eval: func(x []float64) float64 {
			t, ok := e.at(x)
			if !ok {
				return math.NaN()
			}
			return sign * math.Sqrt(t.Var)
		},
		Grad: func(x []float64, g []float64) {
			t, ok := e.at(x)
			if !ok {
				nanGrad(g)
				return
			}
			sigma := math.Max(math.Sqrt(t.Var), sigmaFloor)
			e.grad(g, 0, sign/(2*sigma))
		},
	}
}

// solveReduced builds and solves the reduced formulation, returning
// the NLP result and the speed factors indexed by NodeID. ctx cancels
// the solve at ALM iteration boundaries; the result then carries the
// best-so-far iterate with a Cancelled or DeadlineExceeded status.
func solveReduced(ctx context.Context, m *delay.Model, spec Spec) (*nlp.Result, []float64, error) {
	gates := m.G.C.GateIDs()
	n := len(gates)
	if n == 0 {
		return nil, nil, fmt.Errorf("sizing: circuit has no gates")
	}
	re := &reducedEval{m: m, gates: gates, workers: spec.Workers, rec: spec.Recorder}

	vars := make([]int, n)
	lower := make([]float64, n)
	upper := make([]float64, n)
	for i := range vars {
		vars[i] = i
		lower[i] = 1
		upper[i] = m.Limit
	}

	p := &nlp.Problem{N: n, Lower: lower, Upper: upper}
	switch spec.Objective.Kind {
	case ObjMuPlusKSigma:
		p.Objective = []nlp.Element{re.muKSigmaElement(vars, spec.Objective.K, 0)}
	case ObjArea, ObjWeightedArea:
		coeffs := make([]float64, n)
		for i := range coeffs {
			coeffs[i] = 1
		}
		if spec.Objective.Kind == ObjWeightedArea {
			if spec.Weights == nil {
				return nil, nil, fmt.Errorf("sizing: weighted area needs Spec.Weights")
			}
			for i, id := range gates {
				coeffs[i] = spec.Weights[id]
			}
		}
		p.Objective = []nlp.Element{nlp.LinearElement(vars, coeffs, 0)}
	case ObjSigma:
		p.Objective = []nlp.Element{re.sigmaElement(vars, 1)}
	case ObjNegSigma:
		p.Objective = []nlp.Element{re.sigmaElement(vars, -1)}
	default:
		return nil, nil, fmt.Errorf("sizing: unknown objective %v", spec.Objective)
	}

	for _, c := range spec.Constraints {
		switch c.Kind {
		case ConMuPlusKSigmaLE:
			p.IneqCons = append(p.IneqCons, nlp.Constraint{
				Name: c.String(),
				El:   re.muKSigmaElement(vars, c.K, -c.Bound),
			})
		case ConMuEQ:
			p.EqCons = append(p.EqCons, nlp.Constraint{
				Name: c.String(),
				El:   re.muKSigmaElement(vars, 0, -c.Bound),
			})
		default:
			return nil, nil, fmt.Errorf("sizing: unknown constraint %v", c)
		}
	}

	x0 := make([]float64, n)
	for i, id := range gates {
		x0[i] = 1
		if spec.Start != nil {
			x0[i] = spec.Start[id]
		}
	}
	if spec.Start == nil && spec.Objective.Kind == ObjNegSigma {
		perturbStart(x0, m.Limit)
	}
	opt := spec.Solver
	if opt.Method == nlp.NewtonCG {
		return nil, nil, fmt.Errorf("sizing: the reduced formulation has no element Hessians; use LBFGS or the full-space formulation")
	}
	if opt.Workers == 0 {
		opt.Workers = spec.Workers
	}
	if opt.Recorder == nil {
		opt.Recorder = spec.Recorder
	}

	if spec.WrapProblem != nil {
		p = spec.WrapProblem(p)
	}
	res, err := nlp.SolveCtx(ctx, p, x0, opt)
	if err != nil {
		return nil, nil, err
	}
	S := m.UnitSizes()
	for i, id := range gates {
		S[id] = res.X[i]
	}
	return res, S, nil
}
