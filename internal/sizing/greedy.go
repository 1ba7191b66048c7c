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
	gates := m.G.C.GateIDs()
	if opt.MaxSteps == 0 {
		opt.MaxSteps = 200 * len(gates)
	}

	done := ctx.Done()
	S := m.UnitSizes()
	res := &GreedyResult{}
	rec := opt.Recorder
	stack := telemetry.NewStack(rec)
	stack.Push("greedy")
	// The steady-state loop runs on the persistent engine: each bump
	// dirties only the gate and its fanin drivers, Update re-evaluates
	// the changed cone, and the adjoint pass reuses the refreshed tape
	// slabs — per-step allocations are zero instead of a fresh O(V)
	// slab set per sweep.
	inc := ssta.NewHier(m, S, ssta.HierOptions{Recorder: rec})
	for ; res.Steps < opt.MaxSteps; res.Steps++ {
		if cancelled(done) {
			break
		}
		stack.PopTo(1) // close the previous step's scope
		stack.Push("greedy.step")
		stack.Push("greedy.grad")
		phi, grad := inc.GradMuPlusKSigma(opt.K)
		stack.Pop()
		if rec != nil {
			rec.Event("greedy", "step",
				telemetry.I("step", res.Steps),
				telemetry.F("phi", phi),
			)
		}
		if phi <= opt.Deadline {
			res.Met = true
			break
		}
		// Pick the gate with the best quantile gain per unit of
		// (weighted) area among those with headroom. A relative bump
		// dS = S*(Step-1) changes the quantile by about grad*S*(Step-1)
		// and costs w*S*(Step-1) of weighted area, so the
		// per-unit-area score is grad/w — which reduces to the raw
		// gradient only when the weights are uniform.
		best := -1
		var bestScore float64
		for _, id := range gates {
			if S[id] >= m.Limit-1e-12 {
				continue
			}
			score := grad[id] // d phi / d S; negative helps
			if opt.Weights != nil {
				w := opt.Weights[id]
				if w < weightFloor {
					w = weightFloor
				}
				score /= w
			}
			if score < bestScore {
				bestScore = score
				best = int(id)
			}
		}
		if best < 0 {
			// No gate with headroom has a negative sensitivity: no
			// bump can lower the quantile (every gate at the limit
			// included).
			break
		}
		S[best] *= opt.Step
		if S[best] > m.Limit {
			S[best] = m.Limit
		}
		inc.SetSize(netlist.NodeID(best), S[best])
	}
	stack.PopTo(1)
	stack.Push("greedy.finalize")
	m.ClampSizes(S)
	r := ssta.Analyze(m, S, false)
	stack.PopTo(0)
	res.S = S
	res.MuTmax = r.Tmax.Mu
	res.SigmaTmax = r.Tmax.Sigma()
	res.SumS = m.SumSizes(S)
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
