package sizing

import (
	"context"
	"fmt"
	"math"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/telemetry"
)

// SizeGreedy is a TILOS-style sensitivity heuristic (Fishburn &
// Dunlop's classic approach, the pre-LP state of the art the paper's
// reference [3] improved on): starting from minimum sizes, repeatedly
// bump the speed factor of the gate with the best delay-reduction per
// unit area until the mu + k*sigma quantile meets the deadline. The
// exact adjoint gradient makes the sensitivity ranking cheap — one
// taped sweep per step instead of one sweep per gate — and the
// persistent engine (ssta.Hier) makes each step cheaper still: a bump
// re-evaluates only the changed cone and the backward pass reuses the
// engine's tape slabs allocation-free.
//
// It is provided as a baseline: fast and simple, but greedy — the NLP
// formulations reach the same deadlines with less area (measured in
// the package tests).
type GreedyOptions struct {
	// K and Deadline define the target: mu + K*sigma <= Deadline.
	K, Deadline float64
	// Step is the multiplicative bump per iteration (default 1.05).
	Step float64
	// MaxSteps bounds the iterations (default 200 * gate count).
	MaxSteps int
	// Workers is ignored: the persistent SSTA engine's sweeps are
	// serial. The field stays so callers written against the former
	// worker-count option (the benchmark module among them) still
	// build.
	Workers int
	// Weights optionally holds per-gate area weights (indexed by
	// NodeID): the sensitivity rank divides each gate's quantile
	// gradient by its weight, so a power-weighted spec degrading to
	// greedy optimizes the same weighted metric the NLP would have.
	// Nil means uniform weights (plain area); otherwise it needs one
	// finite, non-negative weight per node.
	Weights []float64
	// Recorder, when non-nil, receives one deterministic "greedy.step"
	// event per sensitivity step, a final "greedy.result" event, and
	// the persistent engine's "inc.update" events. Nil disables
	// instrumentation at zero cost.
	Recorder telemetry.Recorder
}

// weightFloor keeps the weighted sensitivity rank finite when a gate's
// weight underflows to (near) zero — a zero-cost gate would otherwise
// produce an infinite score and starve every other candidate.
const weightFloor = 1e-12

// GreedyResult reports the heuristic sizing.
type GreedyResult struct {
	S                 []float64
	MuTmax, SigmaTmax float64
	SumS              float64
	Steps             int
	// Met reports whether the final sizing meets the deadline. It is
	// false when the loop stopped first — MaxSteps reached, the
	// context cancelled, or no gate with headroom left a negative
	// sensitivity (every gate at the limit included) — and the target
	// is still missed.
	Met bool
}

// validate rejects options the loop cannot run on for model m: a
// non-finite K would panic in the objective, a NaN deadline would
// never be met and run every gate to the limit, a non-finite step
// would poison the engine, a short or negative weight vector would
// panic or invert the ranking, and a bad speed limit would disable
// the saturation test and the clamp. Step defaults are applied first.
func (opt *GreedyOptions) validate(m *delay.Model) error {
	if err := checkLimit(m.Limit); err != nil {
		return err
	}
	if !isFinite(opt.K) {
		return fmt.Errorf("sizing: greedy risk factor K must be finite, got %v", opt.K)
	}
	if !isFinite(opt.Deadline) || opt.Deadline <= 0 {
		return fmt.Errorf("sizing: greedy needs a positive finite deadline, got %v", opt.Deadline)
	}
	if !isFinite(opt.Step) || opt.Step <= 1 {
		return fmt.Errorf("sizing: greedy step must be finite and exceed 1, got %v", opt.Step)
	}
	return checkWeights(opt.Weights, len(m.G.C.Nodes))
}

// checkLimit accepts a finite speed limit of at least 1: a NaN limit
// fails every bound comparison and silently removes the size box.
func checkLimit(limit float64) error {
	if !isFinite(limit) || limit < 1 {
		return fmt.Errorf("sizing: speed limit must be finite and at least 1, got %v", limit)
	}
	return nil
}

// checkWeights accepts a nil weight vector (uniform weights) or one
// finite, non-negative weight per node.
func checkWeights(w []float64, n int) error {
	if w == nil {
		return nil
	}
	if len(w) != n {
		return fmt.Errorf("sizing: %d weights for %d nodes", len(w), n)
	}
	for id, v := range w {
		if !isFinite(v) || v < 0 {
			return fmt.Errorf("sizing: weight of node %d is %v, want finite and non-negative", id, v)
		}
	}
	return nil
}

// isFinite reports whether v is neither NaN nor infinite.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SizeGreedy runs the sensitivity heuristic.
func SizeGreedy(m *delay.Model, opt GreedyOptions) (*GreedyResult, error) {
	return SizeGreedyCtx(context.Background(), m, opt)
}

// cancelled polls a context's done channel without blocking.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// greedyRun is one greedy sizing run: the persistent engine, which
// holds the run's speed factors, and its sweep-order views, which the
// pick scans.
type greedyRun struct {
	m     *delay.Model
	opt   *GreedyOptions
	inc   *ssta.Hier
	order []int32   // NodeID at each sweep position
	gate0 int       // first gate position
	sp    []float64 // speed factors by sweep position
	stack *telemetry.Stack
}

// newGreedyRun starts a run at unit sizes.
func newGreedyRun(m *delay.Model, opt *GreedyOptions, stack *telemetry.Stack) *greedyRun {
	r := &greedyRun{m: m, opt: opt, stack: stack}
	r.inc = ssta.NewHier(m, m.UnitSizes(), ssta.HierOptions{Recorder: opt.Recorder})
	r.order, r.gate0 = r.inc.SweepOrder()
	r.sp = r.inc.SweepSizes()
	return r
}

// step runs sensitivity step i: the quantile and its gradient, then,
// while the quantile misses the deadline, a bump of the gate with the
// best score. It returns the bumped gate, or -1 when the run is over:
// met reports whether the quantile met the deadline, and is false when
// no gate with headroom has a negative sensitivity, so no bump can
// lower the quantile (every gate at the limit included).
func (r *greedyRun) step(i int) (bumped netlist.NodeID, met bool) {
	r.stack.PopTo(1) // close the previous step's scope
	r.stack.Push("greedy.step")
	r.stack.Push("greedy.grad")
	phi, grad := r.inc.SweepGradMuPlusKSigma(r.opt.K)
	r.stack.Pop()
	if rec := r.opt.Recorder; rec != nil {
		rec.Event("greedy", "step",
			telemetry.I("step", i),
			telemetry.F("phi", phi),
		)
	}
	if phi <= r.opt.Deadline {
		return -1, true
	}
	p := r.pick(grad)
	if p < 0 {
		return -1, false
	}
	id := netlist.NodeID(r.order[p])
	s := r.sp[p] * r.opt.Step
	if s > r.m.Limit {
		s = r.m.Limit
	}
	r.inc.SetSize(id, s)
	return id, false
}

// pick returns the sweep position of the gate with the best quantile
// gain per unit of (weighted) area among those with headroom, or -1
// when no such gate has a negative score. A relative bump
// dS = S*(Step-1) changes the quantile by about grad*S*(Step-1) and
// costs w*S*(Step-1) of weighted area, so the per-unit-area score is
// grad/w, which reduces to the raw gradient only when the weights are
// uniform. The scan runs in sweep order over the positional gradient
// and sizes; equal scores go to the lowest NodeID, the gate a scan in
// NodeID order picks first.
func (r *greedyRun) pick(grad []float64) int {
	order, sp, wts := r.order, r.sp, r.opt.Weights
	lim := r.m.Limit - 1e-12
	best := -1
	var bestScore float64
	for p := r.gate0; p < len(grad); p++ {
		if sp[p] >= lim {
			continue
		}
		score := grad[p] // d phi / d S; negative helps
		if wts != nil {
			w := wts[order[p]]
			if w < weightFloor {
				w = weightFloor
			}
			score /= w
		}
		if score < bestScore || score == bestScore && best >= 0 && order[p] < order[best] {
			bestScore = score
			best = p
		}
	}
	return best
}

// SizeGreedyCtx runs the sensitivity heuristic under a cancellation
// context. Cancellation is polled once per sensitivity step: a
// cancelled run stops bumping gates but still clamps and analyzes the
// partial sizing, so the caller always receives a valid (if
// unfinished) result — the greedy sizer is the bottom of the
// degradation ladder and must not fail.
func SizeGreedyCtx(ctx context.Context, m *delay.Model, opt GreedyOptions) (*GreedyResult, error) {
	if opt.Step == 0 {
		opt.Step = 1.05
	}
	if err := opt.validate(m); err != nil {
		return nil, err
	}
	if opt.MaxSteps == 0 {
		opt.MaxSteps = 200 * m.G.C.NumGates()
	}

	done := ctx.Done()
	res := &GreedyResult{}
	rec := opt.Recorder
	stack := telemetry.NewStack(rec)
	stack.Push("greedy")
	// The steady-state loop runs on the persistent engine: each bump
	// dirties only the gate and its fanin drivers, Update re-evaluates
	// the changed cone, and the adjoint pass reuses the refreshed tape
	// slabs — per-step allocations are zero instead of a fresh O(V)
	// slab set per sweep.
	run := newGreedyRun(m, &opt, stack)
	for ; res.Steps < opt.MaxSteps; res.Steps++ {
		if cancelled(done) {
			break
		}
		if id, met := run.step(res.Steps); id < 0 {
			res.Met = met
			break
		}
	}
	stack.PopTo(1)
	stack.Push("greedy.finalize")
	// Every size stays in [1, Limit] without a clamp: sizes start at 1,
	// a bump multiplies by Step > 1 and is capped at Limit >= 1. The
	// report is the warm engine's flushed moments, bit-identical to a
	// fresh Analyze at S.
	tmax := run.inc.Update()
	stack.PopTo(0)
	res.S = append([]float64(nil), run.inc.Sizes()...)
	res.MuTmax = tmax.Mu
	res.SigmaTmax = tmax.Sigma()
	res.SumS = m.SumSizes(res.S)
	res.Met = res.Met || res.MuTmax+opt.K*res.SigmaTmax <= opt.Deadline
	if rec != nil {
		met := 0.0
		if res.Met {
			met = 1
		}
		rec.Event("greedy", "result",
			telemetry.I("steps", res.Steps),
			telemetry.F("mu", res.MuTmax),
			telemetry.F("sigma", res.SigmaTmax),
			telemetry.F("area", res.SumS),
			telemetry.F("met", met),
		)
	}
	return res, nil
}
