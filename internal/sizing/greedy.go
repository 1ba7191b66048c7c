package sizing

import (
	"context"
	"fmt"

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
	// Workers bounds the parallelism of the SSTA sweeps: <= 0 uses
	// one worker per CPU, 1 forces the serial sweep.
	Workers int
	// Weights optionally holds per-gate area weights (indexed by
	// NodeID): the sensitivity rank divides each gate's quantile
	// gradient by its weight, so a power-weighted spec degrading to
	// greedy optimizes the same weighted metric the NLP would have.
	// Nil means uniform weights (plain area).
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
	// Met reports whether the deadline was reached (false when every
	// gate is at the limit and the target is still missed).
	Met bool
}

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
	if opt.Deadline <= 0 {
		return nil, fmt.Errorf("sizing: greedy needs a positive deadline, got %v", opt.Deadline)
	}
	if opt.Step == 0 {
		opt.Step = 1.05
	}
	if opt.Step <= 1 {
		return nil, fmt.Errorf("sizing: greedy step must exceed 1, got %v", opt.Step)
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
	// slabs — per-step allocations are zero (with
	// Workers == 1) instead of a fresh O(V) slab set per sweep.
	inc := ssta.NewHier(m, S, ssta.HierOptions{Workers: opt.Workers, Recorder: rec})
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
			break // everything at the limit
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
	r := ssta.AnalyzeWorkers(m, S, false, opt.Workers)
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
