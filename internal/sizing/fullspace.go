package sizing

import (
	"context"
	"fmt"
	"math"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/ssta"
	"repro/internal/stats"
)

// The full-space formulation reproduces the paper's equation 17/18
// construction literally, in the paper's own parameterization: means
// and standard deviations are problem variables, variances appear only
// squared inside constraints ("we use only the squared version of
// standard deviations in the model", section 4). Problem variables per
// gate g:
//
//	S_g              speed factor               1 <= S <= limit
//	muT_g, sT_g      gate delay mean and sigma (sigma >= 0)
//	muA_g, sA_g      arrival mean and sigma at the gate output
//
// plus one (mu, sigma) auxiliary pair per two-operand max in the left
// folds over gate fanins and over the primary outputs. Equality
// constraints:
//
//	delay:   muT*S - tint*S - c*(Cload + sum Cin_f S_f) = 0    (eq 15)
//	sigma:   sT - f(muT) = 0                                   (eq 16)
//	arrival: muA - muU - muT = 0, sA^2 - sU^2 - sT^2 = 0       (eq 18c)
//	max:     max_mu(A,B) - muAux = 0, max_s(A,B) - sAux = 0    (eq 18b)
//
// With sigma as the variable, every mu + k*sigma objective and timing
// constraint is linear; the only nonlinearities are the bilinear delay
// relation, the quadratic arrival-variance addition, and the max
// moments, whose exact first and second derivatives come from the
// closed-form Jacobian and hyper-dual Hessians of internal/stats —
// enabling the Newton-CG inner solver, the paper's argument for
// deriving the analytic expressions in the first place.
//
// (An alternative substitution w = sigma^2 with a defining equality
// s^2 - w = 0 creates a spurious stationary point at s = 0 where the
// defining constraint's gradient in s vanishes; the augmented
// Lagrangian can converge to it with a permanent infeasibility. The
// sigma parameterization avoids the defect because the only flat
// point, sigma exactly 0 against a positive right-hand side, repels
// the merit minimizer instead of trapping it.)

// operand denotes one input of a stochastic max: either a (mu, sigma)
// pair of problem variables or a constant pair (primary inputs). The
// shift adds the constant per-pin delay of eq 1 to a variable mean.
type operand struct {
	muVar, sVar int // variable indices, or -1 for constants
	mu, sigma   float64
	shift       float64
}

func varOperand(muVar, sVar int) operand { return operand{muVar: muVar, sVar: sVar} }

func constOperand(mv stats.MV) operand {
	return operand{muVar: -1, sVar: -1, mu: mv.Mu, sigma: mv.Sigma()}
}

// fsLayout maps model entities to variable indices.
type fsLayout struct {
	nVars   int
	s       []int // per NodeID; -1 for inputs
	muT, sT []int
	muA, sA []int
	gateAux [][]int // per NodeID: 2*(fanin-1) indices, (mu, sigma) pairs
	outAux  []int   // 2*(numOutputs-1) indices
	// muTmax, sTmax locate the circuit delay pair (may alias the
	// arrival pair of a single output).
	muTmax, sTmax int
}

func buildLayout(m *delay.Model) *fsLayout {
	g := m.G
	n := len(g.C.Nodes)
	l := &fsLayout{
		s:       make([]int, n),
		muT:     make([]int, n),
		sT:      make([]int, n),
		muA:     make([]int, n),
		sA:      make([]int, n),
		gateAux: make([][]int, n),
	}
	alloc := func() int {
		v := l.nVars
		l.nVars++
		return v
	}
	for i := range g.C.Nodes {
		l.s[i], l.muT[i], l.sT[i], l.muA[i], l.sA[i] = -1, -1, -1, -1, -1
	}
	for _, id := range g.C.GateIDs() {
		l.s[id] = alloc()
		l.muT[id] = alloc()
		l.sT[id] = alloc()
		l.muA[id] = alloc()
		l.sA[id] = alloc()
		k := len(g.C.Nodes[id].Fanin)
		if k >= 2 {
			aux := make([]int, 0, 2*(k-1))
			for j := 0; j < k-1; j++ {
				aux = append(aux, alloc(), alloc())
			}
			l.gateAux[id] = aux
		}
	}
	outs := g.C.Outputs
	if len(outs) == 1 {
		l.muTmax = l.muA[outs[0]]
		l.sTmax = l.sA[outs[0]]
	} else {
		l.outAux = make([]int, 0, 2*(len(outs)-1))
		for j := 0; j < len(outs)-1; j++ {
			l.outAux = append(l.outAux, alloc(), alloc())
		}
		l.muTmax = l.outAux[len(l.outAux)-2]
		l.sTmax = l.outAux[len(l.outAux)-1]
	}
	return l
}

// arrivalOperand returns the arrival moments of node f, shifted by the
// receiving pin's additive delay, as an operand.
func (l *fsLayout) arrivalOperand(m *delay.Model, f netlist.NodeID, pinOff float64) operand {
	if m.G.C.Nodes[f].Kind == netlist.KindInput {
		mv := m.Arrival[f]
		return constOperand(stats.MV{Mu: mv.Mu + pinOff, Var: mv.Var})
	}
	op := varOperand(l.muA[f], l.sA[f])
	op.shift = pinOff
	return op
}

// maxElements builds the two equality-constraint elements
// max_mu(A, B) - muAux = 0 and max_sigma(A, B) - sAux = 0. Operand
// variables are deduplicated (a gate may use the same fanin on two
// pins), and gradients/Hessians accumulate accordingly.
func maxElements(a, b operand, muAux, sAux int) (muEl, sEl nlp.Element) {
	// Positions of (a.mu, a.sigma, b.mu, b.sigma) within the
	// element's local variable list; -1 marks constants.
	var vars []int
	pos := [4]int{-1, -1, -1, -1}
	seen := map[int]int{}
	add := func(v int) int {
		if v < 0 {
			return -1
		}
		if p, ok := seen[v]; ok {
			return p
		}
		p := len(vars)
		seen[v] = p
		vars = append(vars, v)
		return p
	}
	pos[0] = add(a.muVar)
	pos[1] = add(a.sVar)
	pos[2] = add(b.muVar)
	pos[3] = add(b.sVar)

	// assemble reconstructs the four operand scalars at a local point.
	assemble := func(x []float64) (muA, sA, muB, sB float64) {
		muA, sA, muB, sB = a.mu, a.sigma, b.mu, b.sigma
		if pos[0] >= 0 {
			muA = x[pos[0]] + a.shift
		}
		if pos[1] >= 0 {
			sA = x[pos[1]]
		}
		if pos[2] >= 0 {
			muB = x[pos[2]] + b.shift
		}
		if pos[3] >= 0 {
			sB = x[pos[3]]
		}
		return muA, sA, muB, sB
	}

	build := func(row int, auxVar int) nlp.Element {
		elVars := append(append([]int(nil), vars...), auxVar)
		auxPos := len(elVars) - 1
		return nlp.Element{
			Vars: elVars,
			Eval: func(x []float64) float64 {
				muA, sA, muB, sB := assemble(x)
				muC, sC := stats.Max2Sigma(muA, sA, muB, sB)
				if row == 0 {
					return muC - x[auxPos]
				}
				return sC - x[auxPos]
			},
			Grad: func(x []float64, gr []float64) {
				for i := range gr {
					gr[i] = 0
				}
				muA, sA, muB, sB := assemble(x)
				_, _, jac := stats.Max2SigmaJac(muA, sA, muB, sB)
				for k := 0; k < 4; k++ {
					if pos[k] >= 0 {
						gr[pos[k]] += jac[row][k]
					}
				}
				gr[auxPos] = -1
			},
			Hess: func(x []float64, h [][]float64) {
				for i := range h {
					for j := range h[i] {
						h[i][j] = 0
					}
				}
				muA, sA, muB, sB := assemble(x)
				if stats.Degenerate(stats.MV{Mu: muA, Var: sA * sA}, stats.MV{Mu: muB, Var: sB * sB}) {
					return // deterministic max: piecewise linear
				}
				hMu, hSigma := stats.Max2SigmaHessians(muA, sA, muB, sB)
				src := &hMu
				if row == 1 {
					src = &hSigma
				}
				for i := 0; i < 4; i++ {
					if pos[i] < 0 {
						continue
					}
					for j := 0; j < 4; j++ {
						if pos[j] < 0 {
							continue
						}
						h[pos[i]][pos[j]] += src[i][j]
					}
				}
			},
		}
	}
	return build(0, muAux), build(1, sAux)
}

// delayElement builds the gate delay equality in the requested form:
// the paper's bilinear eq 15 (muT*S - tint*S - c*Cload - c * sum
// Cin_f S_f = 0) or the raw eq 14 kept as a division, for the
// reformulation ablation. Fanout gates driven through multiple pins
// contribute once with a doubled coefficient.
func delayElement(m *delay.Model, l *fsLayout, id netlist.NodeID, form DelayForm) nlp.Element {
	type fo struct {
		pos   int // local position of the fanout gate's S variable
		coeff float64
	}
	vars := []int{l.muT[id], l.s[id]}
	seen := map[int]int{l.s[id]: 1}
	var fos []fo
	for _, f := range m.G.Fanout[id] {
		v := l.s[f]
		if p, ok := seen[v]; ok {
			fos[p-2].coeff += m.Coef * m.CIn[f]
			continue
		}
		seen[v] = len(vars)
		fos = append(fos, fo{pos: len(vars), coeff: m.Coef * m.CIn[f]})
		vars = append(vars, v)
	}
	tint := m.TInt[id]
	konst := -m.Coef * m.CLoad[id]
	if form == Division {
		// Raw eq 14: muT - tint - c*(Cload + sum Cin_f S_f)/S = 0.
		return nlp.Element{
			Vars: vars,
			Eval: func(x []float64) float64 {
				load := -konst
				for _, f := range fos {
					load += f.coeff * x[f.pos]
				}
				return x[0] - tint - load/x[1]
			},
			Grad: func(x []float64, g []float64) {
				for i := range g {
					g[i] = 0
				}
				load := -konst
				for _, f := range fos {
					load += f.coeff * x[f.pos]
				}
				g[0] = 1
				g[1] = load / (x[1] * x[1])
				for _, f := range fos {
					g[f.pos] -= f.coeff / x[1]
				}
			},
			Hess: func(x []float64, h [][]float64) {
				for i := range h {
					for j := range h[i] {
						h[i][j] = 0
					}
				}
				load := -konst
				for _, f := range fos {
					load += f.coeff * x[f.pos]
				}
				s2 := x[1] * x[1]
				h[1][1] = -2 * load / (s2 * x[1])
				for _, f := range fos {
					h[1][f.pos] += f.coeff / s2
					h[f.pos][1] += f.coeff / s2
				}
			},
		}
	}
	return nlp.Element{
		Vars: vars,
		Eval: func(x []float64) float64 {
			v := x[0]*x[1] - tint*x[1] + konst
			for _, f := range fos {
				v -= f.coeff * x[f.pos]
			}
			return v
		},
		Grad: func(x []float64, g []float64) {
			for i := range g {
				g[i] = 0
			}
			g[0] = x[1]
			g[1] = x[0] - tint
			for _, f := range fos {
				g[f.pos] -= f.coeff
			}
		},
		Hess: func(_ []float64, h [][]float64) {
			for i := range h {
				for j := range h[i] {
					h[i][j] = 0
				}
			}
			h[0][1], h[1][0] = 1, 1
		},
	}
}

// sigmaModelElement builds sT - f(muT) = 0 (eq 16).
func sigmaModelElement(sm delay.SigmaModel, sTVar, muTVar int) nlp.Element {
	return nlp.Element{
		Vars: []int{sTVar, muTVar},
		Eval: func(x []float64) float64 { return x[0] - sm.Sigma(x[1]) },
		Grad: func(x []float64, g []float64) {
			g[0] = 1
			g[1] = -sm.DSigma(x[1])
		},
		Hess: func(x []float64, h [][]float64) {
			h[0][0], h[0][1], h[1][0] = 0, 0, 0
			h[1][1] = -sm.D2Sigma(x[1])
		},
	}
}

// arrivalSigmaElement builds the sigma half of eq 18c,
// sA^2 = sU^2 + sT^2, in the *defining* form
//
//	sA - sqrt(sU^2 + sT^2) = 0
//
// rather than the squared difference. The squared form's gradient in
// sA is 2*sA, which vanishes exactly at the lower bound sA = 0; an
// objective that rewards small circuit sigma can then pin sA at zero
// with a permanent constraint violation no penalty can remove. The
// norm form has gradient 1 in sA everywhere, so the defined variable
// always feels the restoring force (the max-moment elements share this
// property through their -1 gradient in the auxiliary). A negative U
// sigma constant marks a variable U.
func arrivalSigmaElement(sAVar, sUVar, sTVar int, sUConst float64) nlp.Element {
	const rFloor = 1e-12
	if sUVar >= 0 {
		return nlp.Element{
			Vars: []int{sAVar, sUVar, sTVar},
			Eval: func(x []float64) float64 {
				return x[0] - math.Hypot(x[1], x[2])
			},
			Grad: func(x []float64, g []float64) {
				r := math.Max(math.Hypot(x[1], x[2]), rFloor)
				g[0] = 1
				g[1] = -x[1] / r
				g[2] = -x[2] / r
			},
			Hess: func(x []float64, h [][]float64) {
				for i := range h {
					for j := range h[i] {
						h[i][j] = 0
					}
				}
				r := math.Hypot(x[1], x[2])
				if r < rFloor {
					return
				}
				r3 := r * r * r
				h[1][1] = -x[2] * x[2] / r3
				h[2][2] = -x[1] * x[1] / r3
				h[1][2] = x[1] * x[2] / r3
				h[2][1] = h[1][2]
			},
		}
	}
	u := sUConst
	return nlp.Element{
		Vars: []int{sAVar, sTVar},
		Eval: func(x []float64) float64 { return x[0] - math.Hypot(u, x[1]) },
		Grad: func(x []float64, g []float64) {
			r := math.Max(math.Hypot(u, x[1]), rFloor)
			g[0] = 1
			g[1] = -x[1] / r
		},
		Hess: func(x []float64, h [][]float64) {
			h[0][0], h[0][1], h[1][0] = 0, 0, 0
			r := math.Hypot(u, x[1])
			if r < rFloor {
				h[1][1] = 0
				return
			}
			h[1][1] = -u * u / (r * r * r)
		},
	}
}

// solveFullSpace builds and solves the paper's eq 17/18 formulation.
// ctx cancels the solve at ALM iteration boundaries.
func solveFullSpace(ctx context.Context, m *delay.Model, spec Spec) (*nlp.Result, []float64, error) {
	p, l, x0, err := buildFullSpace(m, spec)
	if err != nil {
		return nil, nil, err
	}
	opt := spec.Solver
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
	for _, id := range m.G.C.GateIDs() {
		S[id] = res.X[l.s[id]]
	}
	return res, S, nil
}

// buildFullSpace constructs the eq 17/18 problem, its layout and the
// feasible warm-start point.
func buildFullSpace(m *delay.Model, spec Spec) (*nlp.Problem, *fsLayout, []float64, error) {
	g := m.G
	gates := g.C.GateIDs()
	if len(gates) == 0 {
		return nil, nil, nil, fmt.Errorf("sizing: circuit has no gates")
	}
	l := buildLayout(m)

	lower := make([]float64, l.nVars)
	upper := make([]float64, l.nVars)
	for i := range lower {
		lower[i] = math.Inf(-1)
		upper[i] = math.Inf(1)
	}
	for _, id := range gates {
		lower[l.s[id]] = 1
		upper[l.s[id]] = m.Limit
		lower[l.sT[id]] = 0 // standard deviations are physical
		lower[l.sA[id]] = 0
	}
	for _, aux := range l.gateAux {
		for j := 1; j < len(aux); j += 2 {
			lower[aux[j]] = 0
		}
	}
	for j := 1; j < len(l.outAux); j += 2 {
		lower[l.outAux[j]] = 0
	}

	p := &nlp.Problem{N: l.nVars, Lower: lower, Upper: upper}

	// Per-gate constraints.
	for _, id := range gates {
		nd := &g.C.Nodes[id]
		name := nd.Name
		p.EqCons = append(p.EqCons,
			nlp.Constraint{Name: "delay:" + name, El: delayElement(m, l, id, spec.DelayForm)},
			nlp.Constraint{Name: "sigma:" + name, El: sigmaModelElement(m.Sigma, l.sT[id], l.muT[id])},
		)
		// Fanin fold (eq 18b).
		var u operand
		if len(nd.Fanin) == 1 {
			u = l.arrivalOperand(m, nd.Fanin[0], m.PinOff(id, 0))
		} else {
			aux := l.gateAux[id]
			a := l.arrivalOperand(m, nd.Fanin[0], m.PinOff(id, 0))
			for j, f := range nd.Fanin[1:] {
				b := l.arrivalOperand(m, f, m.PinOff(id, j+1))
				muAux, sAux := aux[2*j], aux[2*j+1]
				muEl, sEl := maxElements(a, b, muAux, sAux)
				p.EqCons = append(p.EqCons,
					nlp.Constraint{Name: fmt.Sprintf("maxmu:%s/%d", name, j), El: muEl},
					nlp.Constraint{Name: fmt.Sprintf("maxs:%s/%d", name, j), El: sEl},
				)
				a = varOperand(muAux, sAux)
			}
			u = a
		}
		// Arrival addition (eq 18c): mean is linear, sigma in squared
		// form; U may be constant.
		if u.muVar >= 0 {
			p.EqCons = append(p.EqCons,
				nlp.Constraint{Name: "arrmu:" + name,
					El: nlp.LinearElement([]int{l.muA[id], u.muVar, l.muT[id]}, []float64{1, -1, -1}, -u.shift)},
				nlp.Constraint{Name: "arrs:" + name,
					El: arrivalSigmaElement(l.sA[id], u.sVar, l.sT[id], -1)},
			)
		} else {
			p.EqCons = append(p.EqCons,
				nlp.Constraint{Name: "arrmu:" + name,
					El: nlp.LinearElement([]int{l.muA[id], l.muT[id]}, []float64{1, -1}, -u.mu)},
				nlp.Constraint{Name: "arrs:" + name,
					El: arrivalSigmaElement(l.sA[id], -1, l.sT[id], u.sigma)},
			)
		}
	}

	// Output fold (eq 18a).
	outs := g.C.Outputs
	if len(outs) > 1 {
		a := varOperand(l.muA[outs[0]], l.sA[outs[0]])
		for j, o := range outs[1:] {
			b := varOperand(l.muA[o], l.sA[o])
			muAux, sAux := l.outAux[2*j], l.outAux[2*j+1]
			muEl, sEl := maxElements(a, b, muAux, sAux)
			p.EqCons = append(p.EqCons,
				nlp.Constraint{Name: fmt.Sprintf("outmaxmu:%d", j), El: muEl},
				nlp.Constraint{Name: fmt.Sprintf("outmaxs:%d", j), El: sEl},
			)
			a = varOperand(muAux, sAux)
		}
	}

	// Objective: linear in the sigma parameterization.
	switch spec.Objective.Kind {
	case ObjMuPlusKSigma:
		if spec.Objective.K == 0 {
			p.Objective = []nlp.Element{nlp.LinearElement([]int{l.muTmax}, []float64{1}, 0)}
		} else {
			p.Objective = []nlp.Element{nlp.LinearElement(
				[]int{l.muTmax, l.sTmax}, []float64{1, spec.Objective.K}, 0)}
		}
	case ObjArea, ObjWeightedArea:
		vars := make([]int, len(gates))
		coeffs := make([]float64, len(gates))
		for i, id := range gates {
			vars[i] = l.s[id]
			coeffs[i] = 1
			if spec.Objective.Kind == ObjWeightedArea {
				if spec.Weights == nil {
					return nil, nil, nil, fmt.Errorf("sizing: weighted area needs Spec.Weights")
				}
				coeffs[i] = spec.Weights[id]
			}
		}
		p.Objective = []nlp.Element{nlp.LinearElement(vars, coeffs, 0)}
	case ObjSigma:
		p.Objective = []nlp.Element{nlp.LinearElement([]int{l.sTmax}, []float64{1}, 0)}
	case ObjNegSigma:
		p.Objective = []nlp.Element{nlp.LinearElement([]int{l.sTmax}, []float64{-1}, 0)}
	default:
		return nil, nil, nil, fmt.Errorf("sizing: unknown objective %v", spec.Objective)
	}

	// Timing constraints, all linear.
	for _, c := range spec.Constraints {
		switch c.Kind {
		case ConMuPlusKSigmaLE:
			el := nlp.LinearElement([]int{l.muTmax}, []float64{1}, -c.Bound)
			if c.K != 0 {
				el = nlp.LinearElement([]int{l.muTmax, l.sTmax}, []float64{1, c.K}, -c.Bound)
			}
			p.IneqCons = append(p.IneqCons, nlp.Constraint{Name: c.String(), El: el})
		case ConMuEQ:
			p.EqCons = append(p.EqCons, nlp.Constraint{
				Name: c.String(),
				El:   nlp.LinearElement([]int{l.muTmax}, []float64{1}, -c.Bound),
			})
		default:
			return nil, nil, nil, fmt.Errorf("sizing: unknown constraint %v", c)
		}
	}

	start := spec.Start
	if start == nil && spec.Objective.Kind == ObjNegSigma {
		// See perturbStart: symmetric starts trap the sigma
		// maximization in symmetric stationary points.
		start = m.UnitSizes()
		perturbStart(start, m.Limit)
	}
	return p, l, warmStart(m, l, start), nil
}

// warmStart builds an initial point that satisfies every equality
// constraint exactly: speed factors from start (or all ones) and all
// moment variables from a forward SSTA sweep at those factors,
// re-folding the maxima to fill the auxiliaries.
func warmStart(m *delay.Model, l *fsLayout, start []float64) []float64 {
	g := m.G
	S := m.UnitSizes()
	if start != nil {
		copy(S, start)
		m.ClampSizes(S)
	}
	r := ssta.Analyze(m, S, false)
	x := make([]float64, l.nVars)
	arr := func(f netlist.NodeID, off float64) stats.MV {
		mv := r.Arrival[f]
		if g.C.Nodes[f].Kind == netlist.KindInput {
			mv = m.Arrival[f]
		}
		return stats.MV{Mu: mv.Mu + off, Var: mv.Var}
	}
	for _, id := range g.C.GateIDs() {
		x[l.s[id]] = S[id]
		mv := r.GateDelay[id]
		x[l.muT[id]] = mv.Mu
		x[l.sT[id]] = mv.Sigma()
		x[l.muA[id]] = r.Arrival[id].Mu
		x[l.sA[id]] = r.Arrival[id].Sigma()
		fanin := g.C.Nodes[id].Fanin
		if len(fanin) >= 2 {
			aux := l.gateAux[id]
			acc := arr(fanin[0], m.PinOff(id, 0))
			for j, f := range fanin[1:] {
				acc = stats.Max2(acc, arr(f, m.PinOff(id, j+1)))
				x[aux[2*j]] = acc.Mu
				x[aux[2*j+1]] = acc.Sigma()
			}
		}
	}
	outs := g.C.Outputs
	if len(outs) > 1 {
		acc := r.Arrival[outs[0]]
		for j, o := range outs[1:] {
			acc = stats.Max2(acc, r.Arrival[o])
			x[l.outAux[2*j]] = acc.Mu
			x[l.outAux[2*j+1]] = acc.Sigma()
		}
	}
	return x
}
