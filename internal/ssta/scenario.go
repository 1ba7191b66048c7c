package ssta

import (
	"math"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
)

// A Scenario is one lane of a batched sweep: a complete speed-factor
// assignment plus a delay skew. The skew scales every gate's mean
// delay by (1 + Skew), floored at zero — the rise/fall convention of
// AnalyzeRiseFall — before the sigma model maps the scaled mean to a
// variance; Skew = 0 reproduces the plain Analyze delay model exactly
// (no floor is applied, matching Analyze bit for bit even on negative
// mean delays).
type Scenario struct {
	// S is the speed-factor assignment, indexed by NodeID. Batch
	// copies it into its lane slab; the caller keeps ownership.
	S []float64
	// Skew scales gate mean delays by (1 + Skew), floored at zero.
	// Must satisfy Skew > -1 is NOT required — a skew at or below -1
	// simply floors every gate at zero, like AnalyzeRiseFall.
	Skew float64
}

// scenarioGateMV is the single definition of a scenario's gate delay
// distribution, shared by the scalar reference sweep and (in lane
// form) by Batch: mu' = floor0((1+Skew) * GateMu), var = Sigma(mu').
// With Skew == 0 it performs exactly GateMV's operations.
func scenarioGateMV(m *delay.Model, id netlist.NodeID, sc Scenario) stats.MV {
	mu := m.GateMu(id, sc.S)
	if sc.Skew != 0 {
		mu *= 1 + sc.Skew
		if mu < 0 {
			mu = 0
		}
	}
	return stats.MV{Mu: mu, Var: m.Sigma.Var(mu)}
}

// AnalyzeScenario runs the serial taped forward sweep for one
// scenario. It is the scalar reference the batched engine is measured
// against: Batch lane l is bit-identical to
// AnalyzeScenario(m, scenario_l) by construction, and a zero-skew
// scenario is bit-identical to Analyze(m, S, true).
func AnalyzeScenario(m *delay.Model, sc Scenario) *Result {
	g := m.G
	n := len(g.C.Nodes)
	if len(sc.S) != n {
		panic("ssta: AnalyzeScenario scenario sizes do not match the circuit")
	}
	r := &Result{
		Arrival:   make([]stats.MV, n),
		GateDelay: make([]stats.MV, n),
		withTape:  true,
		gateFold:  make([][]stats.Jac2x4, n),
	}
	for _, id := range g.Topo {
		nd := &g.C.Nodes[id]
		if nd.Kind == netlist.KindInput {
			r.Arrival[id] = m.Arrival[id]
			continue
		}
		var steps []stats.Jac2x4
		if len(nd.Fanin) > 1 {
			steps = make([]stats.Jac2x4, len(nd.Fanin)-1)
			r.gateFold[id] = steps
		}
		forwardGate(r, m, id, nd.Fanin, steps, scenarioGateMV(m, id, sc))
	}
	foldOutputs(r, g, true)
	return r
}

// BackwardScenario runs the serial adjoint sweep for a Result produced
// by AnalyzeScenario under the same scenario, returning d phi/d S. It
// differs from Backward only in the chain-rule factor of the skew: a
// scaled gate mean contributes (1 + Skew) per unit of GateMu, and a
// lane floored at zero contributes nothing (the one-sided subgradient
// at the floor). With Skew == 0 every operation matches Backward
// exactly.
func (r *Result) BackwardScenario(m *delay.Model, sc Scenario, seedMu, seedVar float64) []float64 {
	if !r.withTape {
		panic("ssta: BackwardScenario requires a taped sweep")
	}
	g := m.G
	n := len(g.C.Nodes)
	adjMu := make([]float64, n)
	adjVar := make([]float64, n)
	grad := make([]float64, n)
	r.seedAdjoint(g, seedMu, seedVar, adjMu, adjVar)
	scale := 1 + sc.Skew
	for l := len(g.Levels) - 1; l >= 1; l-- {
		for _, id := range g.Levels[l] {
			am, av := adjMu[id], adjVar[id]
			if am == 0 && av == 0 {
				continue
			}
			muT := r.GateDelay[id].Mu
			d := am + av*m.Sigma.DVar(muT)
			w := d
			if sc.Skew != 0 {
				if muT == 0 {
					w = 0 // floored lane: no sensitivity to GateMu
				} else {
					w = d * scale
				}
			}
			m.GateMuGrad(id, sc.S, w, grad)
			fanin := g.C.Nodes[id].Fanin
			uMu, uVar := am, av
			steps := r.gateFold[id]
			for k := len(fanin) - 1; k >= 1; k-- {
				j := steps[k-1]
				f := fanin[k]
				adjMu[f] += uMu*j[0][2] + uVar*j[1][2]
				adjVar[f] += uMu*j[0][3] + uVar*j[1][3]
				uMu, uVar = uMu*j[0][0]+uVar*j[1][0], uMu*j[0][1]+uVar*j[1][1]
			}
			adjMu[fanin[0]] += uMu
			adjVar[fanin[0]] += uVar
		}
	}
	return grad
}

// GradScenarioMuPlusKSigma is the scalar scenario reference for
// Batch.GradsMuPlusKSigma: one taped scenario sweep plus one scenario
// adjoint pass, returning phi = mu + k*sigma and d phi/d S.
func GradScenarioMuPlusKSigma(m *delay.Model, sc Scenario, k float64) (float64, []float64) {
	checkRiskFactor(k, "GradScenarioMuPlusKSigma")
	r := AnalyzeScenario(m, sc)
	phi, sMu, sVar := ObjectiveMuPlusKSigma(r.Tmax, k)
	return phi, r.BackwardScenario(m, sc, sMu, sVar)
}

// checkRiskFactor rejects NaN and infinite risk factors at the API
// boundary: a non-finite k would otherwise poison every lane of a
// sweep with NaN and surface as a silently absurd circuit delay far
// from its cause (the PR 5 clamp work floored quantiles, but a NaN k
// sails through any clamp because every comparison with NaN is
// false).
func checkRiskFactor(k float64, where string) {
	if math.IsNaN(k) || math.IsInf(k, 0) {
		panic("ssta: " + where + " requires a finite risk factor k, got " +
			formatFloat(k))
	}
}

// formatFloat renders k for panic messages without pulling fmt into
// the hot-path file.
func formatFloat(k float64) string {
	switch {
	case math.IsNaN(k):
		return "NaN"
	case math.IsInf(k, 1):
		return "+Inf"
	case math.IsInf(k, -1):
		return "-Inf"
	}
	return "non-finite"
}
