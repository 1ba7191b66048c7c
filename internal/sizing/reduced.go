package sizing

import (
	"context"
	"fmt"
	"math"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/ssta"
)

// reducedEval adapts the SSTA forward/adjoint sweeps to nlp.Element
// callbacks. The problem variables are the speed factors of the gates
// in dense order. Each element owns a private full-length S scratch
// buffer (passed explicitly to the helpers below), which makes every
// Eval/Grad a pure function of its local point: the NLP engine may
// evaluate distinct elements concurrently when nlp.Options.Workers
// permits.
type reducedEval struct {
	m     *delay.Model
	gates []netlist.NodeID
	// opt carries the sweep workers and the recorder that aggregates
	// sweep spans ("ssta.forward"/"ssta.adjoint"); the metrics sinks
	// are concurrency-safe, so recording stays correct when the NLP
	// engine evaluates distinct elements in parallel. The sweeps run
	// under context.Background, which never cancels, so their errors
	// are always nil: the solver polls cancellation itself.
	opt ssta.SweepOptions
}

func (re *reducedEval) setS(S, x []float64) {
	for i, id := range re.gates {
		S[id] = x[i]
	}
}

// moments runs the forward sweep at the dense point x using the
// caller-owned S scratch.
func (re *reducedEval) moments(S, x []float64) (mu, variance float64) {
	re.setS(S, x)
	r, _ := ssta.AnalyzeCtx(context.Background(), re.m, S, false, re.opt)
	return r.Tmax.Mu, r.Tmax.Var
}

// gradMoments runs a taped sweep and the adjoint with the given seed,
// scattering the result into the dense gradient g.
func (re *reducedEval) gradMoments(S, x, g []float64, seedMu, seedVar float64) {
	re.setS(S, x)
	r, _ := ssta.AnalyzeCtx(context.Background(), re.m, S, true, re.opt)
	full, _ := r.BackwardCtx(context.Background(), re.m, S, seedMu, seedVar, re.opt)
	for i, id := range re.gates {
		g[i] = full[id]
	}
}

// sigmaFloor keeps 1/sigma finite when the delay variance vanishes
// (possible only in the deterministic limit).
const sigmaFloor = 1e-9

// muKSigmaElement returns an element computing
// muTmax + k*sigmaTmax + shift over all speed factors. The captured S
// buffer is private to the element.
func (re *reducedEval) muKSigmaElement(vars []int, k, shift float64) nlp.Element {
	S := re.m.UnitSizes()
	return nlp.Element{
		Vars: vars,
		Eval: func(x []float64) float64 {
			mu, v := re.moments(S, x)
			if k == 0 {
				return mu + shift
			}
			return mu + k*math.Sqrt(v) + shift
		},
		Grad: func(x []float64, g []float64) {
			if k == 0 {
				re.gradMoments(S, x, g, 1, 0)
				return
			}
			_, v := re.moments(S, x)
			sigma := math.Max(math.Sqrt(v), sigmaFloor)
			re.gradMoments(S, x, g, 1, k/(2*sigma))
		},
	}
}

// sigmaElement returns an element computing sign * sigmaTmax.
func (re *reducedEval) sigmaElement(vars []int, sign float64) nlp.Element {
	S := re.m.UnitSizes()
	return nlp.Element{
		Vars: vars,
		Eval: func(x []float64) float64 {
			_, v := re.moments(S, x)
			return sign * math.Sqrt(v)
		},
		Grad: func(x []float64, g []float64) {
			_, v := re.moments(S, x)
			sigma := math.Max(math.Sqrt(v), sigmaFloor)
			re.gradMoments(S, x, g, 0, sign/(2*sigma))
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
	re := &reducedEval{m: m, gates: gates, opt: ssta.SweepOptions{Workers: spec.Workers, Recorder: spec.Recorder}}

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
