package nlp

import (
	"math"

	"repro/internal/telemetry"
)

// innerSolver minimizes the augmented Lagrangian over the bound box,
// starting from (and updating) x, until the projected gradient drops
// below tol or the iteration budget runs out. It returns the number of
// iterations spent and the final projected-gradient norm.
type innerSolver interface {
	minimize(x []float64, tol float64) (iters int, projGrad float64)
}

// lbfgsSolver is a projected limited-memory BFGS method: the two-loop
// recursion builds a quasi-Newton direction from recent curvature
// pairs, components that would immediately leave the box are zeroed,
// and an Armijo backtracking search runs along the projected path
// x(alpha) = Proj(x + alpha*d). Memory is dropped whenever curvature
// degenerates or the line search fails, falling back to projected
// steepest descent, which makes the method globally convergent in
// practice for the smooth merit functions produced by the ALM.
type lbfgsSolver struct {
	p   *Problem
	st  *almState
	opt Options

	grad, xNew, gNew, d []float64
	s, y                [][]float64 // circular history
	rhoPairs            []float64   // 1 / (y.s)
	alpha               []float64   // two-loop scratch, reused
	histLen, histPos    int
}

func newLBFGSSolver(p *Problem, st *almState, opt Options) *lbfgsSolver {
	m := opt.Memory
	sl := &lbfgsSolver{
		p: p, st: st, opt: opt,
		grad:     make([]float64, p.N),
		xNew:     make([]float64, p.N),
		gNew:     make([]float64, p.N),
		d:        make([]float64, p.N),
		s:        make([][]float64, m),
		y:        make([][]float64, m),
		rhoPairs: make([]float64, m),
		alpha:    make([]float64, m),
	}
	for i := 0; i < m; i++ {
		sl.s[i] = make([]float64, p.N)
		sl.y[i] = make([]float64, p.N)
	}
	return sl
}

func (sl *lbfgsSolver) reset() { sl.histLen, sl.histPos = 0, 0 }

// push records a curvature pair if it is sufficiently positive.
func (sl *lbfgsSolver) push(x, xNew, g, gNew []float64) {
	var sy, ss, yy float64
	i := sl.histPos
	for k := range x {
		sk := xNew[k] - x[k]
		yk := gNew[k] - g[k]
		sl.s[i][k] = sk
		sl.y[i][k] = yk
		sy += sk * yk
		ss += sk * sk
		yy += yk * yk
	}
	if sy <= 1e-10*math.Sqrt(ss*yy) || sy == 0 {
		return // skip degenerate curvature
	}
	sl.rhoPairs[i] = 1 / sy
	sl.histPos = (sl.histPos + 1) % len(sl.s)
	if sl.histLen < len(sl.s) {
		sl.histLen++
	}
}

// direction computes the two-loop L-BFGS direction into sl.d,
// zeroing components locked at active bounds.
func (sl *lbfgsSolver) direction(x, g []float64) {
	n := sl.p.N
	d := sl.d
	for k := 0; k < n; k++ {
		d[k] = -g[k]
	}
	if sl.histLen > 0 {
		alpha := sl.alpha[:sl.histLen]
		// Newest pair is at histPos-1.
		idx := func(j int) int {
			return ((sl.histPos-1-j)%len(sl.s) + len(sl.s)) % len(sl.s)
		}
		for j := 0; j < sl.histLen; j++ {
			i := idx(j)
			var sd float64
			for k := 0; k < n; k++ {
				sd += sl.s[i][k] * d[k]
			}
			alpha[j] = sl.rhoPairs[i] * sd
			for k := 0; k < n; k++ {
				d[k] -= alpha[j] * sl.y[i][k]
			}
		}
		// Initial Hessian scaling gamma = s.y / y.y of newest pair.
		i := idx(0)
		var sy, yy float64
		for k := 0; k < n; k++ {
			sy += sl.s[i][k] * sl.y[i][k]
			yy += sl.y[i][k] * sl.y[i][k]
		}
		if yy > 0 {
			gamma := sy / yy
			for k := 0; k < n; k++ {
				d[k] *= gamma
			}
		}
		for j := sl.histLen - 1; j >= 0; j-- {
			i := idx(j)
			var yd float64
			for k := 0; k < n; k++ {
				yd += sl.y[i][k] * d[k]
			}
			beta := sl.rhoPairs[i] * yd
			for k := 0; k < n; k++ {
				d[k] += (alpha[j] - beta) * sl.s[i][k]
			}
		}
	}
	// Respect active bounds: a variable pinned at a bound with the
	// direction pointing outward stays pinned this iteration.
	for k := 0; k < n; k++ {
		if x[k] <= sl.p.lower(k)+1e-12 && d[k] < 0 {
			d[k] = 0
		}
		if x[k] >= sl.p.upper(k)-1e-12 && d[k] > 0 {
			d[k] = 0
		}
	}
}

func (sl *lbfgsSolver) minimize(x []float64, tol float64) (int, float64) {
	sl.reset()
	st := sl.st
	phi := st.merit(x, sl.grad)
	pg := projGradNorm(sl.p, x, sl.grad)
	iters := 0
	for ; iters < sl.opt.MaxInner && pg > tol; iters++ {
		if st.stop() {
			break
		}
		sl.direction(x, sl.grad)
		// Directional derivative along the projected direction.
		var gd float64
		for k := range x {
			gd += sl.grad[k] * sl.d[k]
		}
		if gd >= 0 {
			// Quasi-Newton direction failed; steepest descent.
			sl.reset()
			gd = 0
			for k := range x {
				sl.d[k] = -sl.grad[k]
				if x[k] <= sl.p.lower(k)+1e-12 && sl.d[k] < 0 {
					sl.d[k] = 0
				}
				if x[k] >= sl.p.upper(k)-1e-12 && sl.d[k] > 0 {
					sl.d[k] = 0
				}
				gd += sl.grad[k] * sl.d[k]
			}
			if gd >= 0 {
				break // projected gradient is zero: at a KKT point
			}
		}
		phiNew, ok := sl.lineSearch(x, phi, gd)
		if !ok {
			if sl.histLen > 0 {
				// Drop stale curvature and retry from scratch once.
				sl.reset()
				continue
			}
			break
		}
		sl.push(x, sl.xNew, sl.grad, sl.gNew)
		copy(x, sl.xNew)
		copy(sl.grad, sl.gNew)
		phi = phiNew
		pg = projGradNorm(sl.p, x, sl.grad)
		if st.rec != nil {
			st.rec.Event("lbfgs", "iter",
				telemetry.I("outer", st.outer),
				telemetry.I("iter", iters+1),
				telemetry.F("phi", phi),
				telemetry.F("pg", pg),
				telemetry.I("hist", sl.histLen),
			)
		}
	}
	return iters, pg
}

// lineSearch backtracks along the projected path from x in direction
// sl.d, writing the accepted point into sl.xNew and its gradient into
// sl.gNew. It returns the new merit value and whether a point
// satisfying the Armijo condition was found.
func (sl *lbfgsSolver) lineSearch(x []float64, phi, gd float64) (float64, bool) {
	return projectedArmijo(sl.p, sl.st, x, sl.grad, sl.d, sl.xNew, sl.gNew, phi, gd)
}

// projectedArmijo backtracks along the projected path
// x(alpha) = Proj(x + alpha*d), writing the accepted point and its
// merit gradient into xNew / gNew. The Armijo decrease reference uses
// the actual displacement times the gradient, which stays valid when
// projection shortens the step; gd (= grad . d) is the fallback for
// fully interior steps. A step that projection reduces to no movement
// is rejected — it cannot make progress.
//
// The gradient is lazy: each trial evaluates the merit value only, and
// meritGrad runs once a trial has a finite value, passes Armijo and
// has moved — so a rejected trial costs no gradient (for the reduced
// formulation, no adjoint sweep). gNew is meaningful only when the
// search succeeds.
//
// A trial whose merit or gradient evaluates non-finite (st.finite,
// screened in both folds) is treated exactly like a failed Armijo
// test: the step is halved and retried. This is the first line of
// non-finite recovery — a transient NaN/Inf is backtracked away from
// before it can be accepted into the iterate or the curvature history.
func projectedArmijo(p *Problem, st *almState, x, grad, d, xNew, gNew []float64, phi, gd float64) (float64, bool) {
	const (
		c1          = 1e-4
		maxHalvings = 30
	)
	alpha := 1.0
	for try := 0; try < maxHalvings; try++ {
		for k := range x {
			xNew[k] = x[k] + alpha*d[k]
		}
		p.project(xNew)
		phiNew := st.merit(xNew, nil)
		if st.finite {
			var ref float64
			for k := range x {
				ref += grad[k] * (xNew[k] - x[k])
			}
			if ref > 0 {
				ref = alpha * gd
			}
			if phiNew <= phi+c1*ref {
				if !moved(x, xNew) {
					return phi, false
				}
				st.meritGrad(gNew)
				if st.finite {
					return phiNew, true
				}
			}
		}
		alpha *= 0.5
	}
	return phi, false
}

// moved reports whether xNew differs from x in any component.
func moved(x, xNew []float64) bool {
	for k := range x {
		if xNew[k] != x[k] {
			return true
		}
	}
	return false
}
