package sizing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/ssta"
)

// reducedCase names one sweep-based element and computes its value
// and gradient from fresh flat sweeps: an untaped AnalyzeCtx for the
// value and sigma, a taped AnalyzeCtx plus BackwardCtx for the
// gradient. The persistent-engine elements must match it bit for bit.
type reducedCase struct {
	// sigmaOnly selects sign*sigma; otherwise mu + k*sigma + shift.
	sigmaOnly      bool
	k, shift, sign float64
}

// reducedCases covers muKSigmaElement at k in {0, 1, 3} and
// sigmaElement at both signs.
func reducedCases() []reducedCase {
	return []reducedCase{
		{k: 0, shift: -2.5},
		{k: 1, shift: -2.5},
		{k: 3, shift: -2.5},
		{sigmaOnly: true, sign: 1},
		{sigmaOnly: true, sign: -1},
	}
}

func (c reducedCase) String() string {
	if c.sigmaOnly {
		return fmt.Sprintf("sigma/sign=%v", c.sign)
	}
	return fmt.Sprintf("muKSigma/k=%v", c.k)
}

func (c reducedCase) build(re *reducedEval, vars []int) nlp.Element {
	if c.sigmaOnly {
		return re.sigmaElement(vars, c.sign)
	}
	return re.muKSigmaElement(vars, c.k, c.shift)
}

// denseVars is the reduced problem's variable list: every gate, in
// dense order.
func denseVars(n int) []int {
	vars := make([]int, n)
	for i := range vars {
		vars[i] = i
	}
	return vars
}

func denseToS(m *delay.Model, gates []netlist.NodeID, x []float64) []float64 {
	S := m.UnitSizes()
	for i, id := range gates {
		S[id] = x[i]
	}
	return S
}

// freshValue is the element value from one untaped flat sweep.
func (c reducedCase) freshValue(m *delay.Model, gates []netlist.NodeID, x []float64) float64 {
	r, _ := ssta.AnalyzeCtx(context.Background(), m, denseToS(m, gates, x), false, ssta.SweepOptions{Workers: 1})
	mu, v := r.Tmax.Mu, r.Tmax.Var
	switch {
	case c.sigmaOnly:
		return c.sign * math.Sqrt(v)
	case c.k == 0:
		return mu + c.shift
	default:
		return mu + c.k*math.Sqrt(v) + c.shift
	}
}

// freshGrad is the element gradient from fresh sweeps: sigma from an
// untaped sweep, then a taped sweep and one adjoint.
func (c reducedCase) freshGrad(m *delay.Model, gates []netlist.NodeID, x []float64) []float64 {
	S := denseToS(m, gates, x)
	opt := ssta.SweepOptions{Workers: 1}
	seedMu, seedVar := 1.0, 0.0
	if c.sigmaOnly || c.k != 0 {
		r, _ := ssta.AnalyzeCtx(context.Background(), m, S, false, opt)
		sigma := math.Max(math.Sqrt(r.Tmax.Var), sigmaFloor)
		if c.sigmaOnly {
			seedMu, seedVar = 0, c.sign/(2*sigma)
		} else {
			seedVar = c.k / (2 * sigma)
		}
	}
	r, _ := ssta.AnalyzeCtx(context.Background(), m, S, true, opt)
	full, _ := r.BackwardCtx(context.Background(), m, S, seedMu, seedVar, opt)
	g := make([]float64, len(gates))
	for i, id := range gates {
		g[i] = full[id]
	}
	return g
}

// pointWalk generates a point sequence exercising every engine move:
// a fresh random point, the same point again, a return to an earlier
// point, a one-gate change, and points with gates pinned at 1 and at
// Limit.
func pointWalk(rng *rand.Rand, n int, limit float64, steps int) [][]float64 {
	random := func() []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 + rng.Float64()*(limit-1)
		}
		return x
	}
	walk := [][]float64{random()}
	for len(walk) < steps {
		last := walk[len(walk)-1]
		var x []float64
		switch rng.Intn(5) {
		case 0:
			x = random()
		case 1:
			x = last
		case 2:
			x = walk[rng.Intn(len(walk))]
		case 3:
			x = append([]float64(nil), last...)
			x[rng.Intn(n)] = 1 + rng.Float64()*(limit-1)
		case 4:
			x = append([]float64(nil), last...)
			for i := range x {
				switch rng.Intn(3) {
				case 0:
					x[i] = 1
				case 1:
					x[i] = limit
				}
			}
		}
		walk = append(walk, x)
	}
	return walk
}

func requireBitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, fresh sweeps give %v", label, i, got[i], want[i])
		}
	}
}

func reducedModels(t *testing.T) map[string]*delay.Model {
	return map[string]*delay.Model{"tree7": treeModel(t), "gen300": genModel(t, 300)}
}

// TestReducedElementsMatchFreshSweeps pins every sweep-based element's
// Eval and Grad, at every step of a random point walk and in random
// call orders (Eval then Grad, Grad alone, Grad then Eval), to fresh
// flat sweeps at the same point, bit for bit, at Workers 1 and 4.
func TestReducedElementsMatchFreshSweeps(t *testing.T) {
	for mname, m := range reducedModels(t) {
		gates := m.G.C.GateIDs()
		vars := denseVars(len(gates))
		for _, workers := range []int{1, 4} {
			for ci, c := range reducedCases() {
				re := &reducedEval{m: m, gates: gates, workers: workers}
				el := c.build(re, vars)
				rng := rand.New(rand.NewSource(int64(100*ci + workers)))
				g := make([]float64, len(gates))
				for step, x := range pointWalk(rng, len(gates), m.Limit, 40) {
					label := fmt.Sprintf("%s/%s/workers=%d/step %d", mname, c, workers, step)
					wantV := c.freshValue(m, gates, x)
					wantG := c.freshGrad(m, gates, x)
					order := rng.Intn(3)
					if order == 0 {
						requireBitsEqual(t, label+" eval", []float64{el.Eval(x)}, []float64{wantV})
					}
					el.Grad(x, g)
					requireBitsEqual(t, label+" grad", g, wantG)
					if order == 2 {
						requireBitsEqual(t, label+" eval", []float64{el.Eval(x)}, []float64{wantV})
					}
				}
			}
		}
	}
}

// TestReducedInterleavedElements evaluates an objective and a
// constraint element — two engines over one reducedEval — at
// alternating, differing points: neither engine may see the other's
// moves.
func TestReducedInterleavedElements(t *testing.T) {
	m := genModel(t, 300)
	gates := m.G.C.GateIDs()
	vars := denseVars(len(gates))
	obj := reducedCases()[3] // sigma, sign +1
	con := reducedCases()[2] // mu + 3 sigma - 2.5
	for _, workers := range []int{1, 4} {
		re := &reducedEval{m: m, gates: gates, workers: workers}
		objEl, conEl := obj.build(re, vars), con.build(re, vars)
		rng := rand.New(rand.NewSource(int64(7 + workers)))
		walk := pointWalk(rng, len(gates), m.Limit, 30)
		g := make([]float64, len(gates))
		for i, x := range walk {
			y := walk[rng.Intn(i+1)]
			requireBitsEqual(t, "objective eval", []float64{objEl.Eval(x)}, []float64{obj.freshValue(m, gates, x)})
			requireBitsEqual(t, "constraint eval", []float64{conEl.Eval(y)}, []float64{con.freshValue(m, gates, y)})
			objEl.Grad(y, g)
			requireBitsEqual(t, "objective grad", g, obj.freshGrad(m, gates, y))
			conEl.Grad(x, g)
			requireBitsEqual(t, "constraint grad", g, con.freshGrad(m, gates, x))
		}
	}
}

// TestReducedNonFinitePoint: a NaN or ±Inf speed factor must answer
// NaN (value and every gradient entry) without touching the engine,
// so the solver's finiteness guard can backtrack, and the next finite
// point must still match fresh sweeps bit for bit. Before the check,
// a +Inf gate on tree7 produced a finite mu + 3 sigma.
func TestReducedNonFinitePoint(t *testing.T) {
	m := treeModel(t)
	gates := m.G.C.GateIDs()
	vars := denseVars(len(gates))
	c := reducedCases()[2] // mu + 3 sigma
	finite := make([]float64, len(gates))
	for i := range finite {
		finite[i] = 1 + 0.25*float64(i)
	}
	for _, warm := range []bool{false, true} {
		re := &reducedEval{m: m, gates: gates, workers: 1}
		el := c.build(re, vars)
		if warm {
			el.Eval(finite)
		}
		g := make([]float64, len(gates))
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			x := append([]float64(nil), finite...)
			x[1] = bad
			if v := el.Eval(x); !math.IsNaN(v) {
				t.Fatalf("warm=%v: Eval with S=%v returned %v, want NaN", warm, bad, v)
			}
			el.Grad(x, g)
			for i, gi := range g {
				if !math.IsNaN(gi) {
					t.Fatalf("warm=%v: Grad with S=%v left entry %d = %v, want NaN", warm, bad, i, gi)
				}
			}
		}
		x := append([]float64(nil), finite...)
		x[3] = m.Limit
		requireBitsEqual(t, "eval after non-finite", []float64{el.Eval(x)}, []float64{c.freshValue(m, gates, x)})
		el.Grad(x, g)
		requireBitsEqual(t, "grad after non-finite", g, c.freshGrad(m, gates, x))
	}
}

// TestReducedWarmEvalGradAllocFree pins the steady state: once the
// engine is built, moving it to a new point and taking the value and
// the gradient there allocates nothing at Workers 1.
func TestReducedWarmEvalGradAllocFree(t *testing.T) {
	m := genModel(t, 300)
	gates := m.G.C.GateIDs()
	vars := denseVars(len(gates))
	x := make([]float64, len(gates))
	for i := range x {
		x[i] = 1.5
	}
	g := make([]float64, len(gates))
	for _, c := range reducedCases() {
		re := &reducedEval{m: m, gates: gates, workers: 1}
		el := c.build(re, vars)
		el.Eval(x)
		el.Grad(x, g)
		step := 0
		allocs := testing.AllocsPerRun(50, func() {
			step++
			x[step%len(x)] = 1 + float64(step%7)*0.25
			el.Eval(x)
			el.Grad(x, g)
		})
		if allocs != 0 {
			t.Errorf("%v: warm Eval+Grad allocates %v times per call, want 0", c, allocs)
		}
	}
}
