package sizing

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/nlp"
	"repro/internal/telemetry"
)

// trajectoryPin is the deterministic fingerprint of one solve: the
// inner iteration and merit evaluation counts, the final objective's
// bits, an FNV-1a hash over the bits of the final iterate, and the
// engine's gradient dispatch count.
type trajectoryPin struct {
	inner, funcEvals int
	fBits, xHash     uint64
	gradEvals        int64
}

// xHash folds the IEEE-754 bits of x into one FNV-1a 64-bit hash.
func xHash(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTrajectoriesPinned pins each inner solver's trajectory bitwise on
// every path that reaches the projected Armijo search: reduced L-BFGS
// (unconstrained and constrained), full-space Newton-CG and projected
// gradient. A line-search or kernel change that is meant to save work
// without moving a single accepted iterate must reproduce these values
// exactly. The gradient dispatch count is pinned as a deterministic
// work unit and bounded by the accepted steps plus the inner-solve
// starts: a merit gradient is computed only at those points.
func TestTrajectoriesPinned(t *testing.T) {
	cases := []struct {
		name  string
		model func(t *testing.T) *delay.Model
		spec  Spec
		want  trajectoryPin
	}{
		{"reduced/lbfgs/tree7/min-mu+3sigma", treeModel, Spec{
			Objective: MinMuPlusKSigma(3),
			Solver:    nlp.Options{Method: nlp.LBFGS},
		}, trajectoryPin{4, 6, 0x401c9c082ef759cf, 0x3f2ac4df57076c7d, 5}},
		{"reduced/lbfgs/gen300/min-mu+3sigma", func(t *testing.T) *delay.Model { return genModel(t, 300) }, Spec{
			Objective: MinMuPlusKSigma(3),
			Solver:    nlp.Options{Method: nlp.LBFGS},
		}, trajectoryPin{500, 1132, 0x4047652e8f39d4aa, 0x89ac50fc0f46804f, 501}},
		{"reduced/lbfgs/tree7/area-st-mu+3sigma<=8", treeModel, Spec{
			Objective:   MinArea(),
			Constraints: []Constraint{DelayLE(3, 8)},
			Solver:      nlp.Options{Method: nlp.LBFGS},
		}, trajectoryPin{39, 75, 0x4028f3ebe75a75e8, 0xdf1e843a213f3b4f, 46}},
		{"full/newton/tree7/min-mu+3sigma", treeModel, Spec{
			Objective:   MinMuPlusKSigma(3),
			Formulation: FullSpace,
			Solver:      nlp.Options{Method: nlp.NewtonCG},
		}, trajectoryPin{44, 85, 0x401c9c07dd21ad29, 0xffc119aa4d8138d9, 51}},
		{"reduced/projgrad/tree7/area-st-mu+3sigma<=8", treeModel, Spec{
			Objective:   MinArea(),
			Constraints: []Constraint{DelayLE(3, 8)},
			Solver:      nlp.Options{Method: nlp.ProjGrad},
		}, trajectoryPin{102, 424, 0x4028f3ebea20e4dd, 0xd331d831279fc5a2, 109}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			metrics := telemetry.NewMetrics()
			spec := c.spec
			spec.Workers = 1
			spec.Recorder = metrics
			out, err := Size(c.model(t), spec)
			if err != nil {
				t.Fatal(err)
			}
			r := out.Solver
			got := trajectoryPin{
				inner:     r.Inner,
				funcEvals: r.FuncEvals,
				fBits:     math.Float64bits(r.F),
				xHash:     xHash(r.X),
				gradEvals: metrics.CounterValue("engine.grad_evals"),
			}
			if got != c.want {
				t.Errorf("trajectory moved:\n got trajectoryPin{%d, %d, %#x, %#x, %d} (F = %v)\nwant trajectoryPin{%d, %d, %#x, %#x, %d} (F = %v)",
					got.inner, got.funcEvals, got.fBits, got.xHash, got.gradEvals, r.F,
					c.want.inner, c.want.funcEvals, c.want.fBits, c.want.xHash, c.want.gradEvals,
					math.Float64frombits(c.want.fBits))
			}
			accepted := metrics.CounterValue("event.lbfgs.iter") +
				metrics.CounterValue("event.newton.iter") +
				metrics.CounterValue("event.projgrad.iter")
			if bound := accepted + int64(r.Outer); got.gradEvals > bound {
				t.Errorf("%d gradient evaluations exceed %d accepted steps + %d inner-solve starts",
					got.gradEvals, accepted, r.Outer)
			}
		})
	}
}
