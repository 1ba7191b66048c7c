// Package ssta implements statistical static timing analysis in the
// style of Berkelaar's linear-time method (the paper's refs [1], [2]):
// one topological forward sweep propagating Gaussian arrival-time
// moments through the analytic add and max operators of
// internal/stats.
//
// Beyond the paper, the package also implements the exact adjoint
// (reverse-mode) sweep: because every operator has closed-form
// derivatives, the gradient of any function of the circuit delay
// moments with respect to all gate speed factors is available in one
// additional backward pass. The reduced sizing formulation in
// internal/sizing is built on this.
package ssta

import (
	"context"
	"math"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// shiftMV translates a moment pair by a constant delay.
func shiftMV(mv stats.MV, off float64) stats.MV {
	if off == 0 {
		return mv
	}
	return stats.MV{Mu: mv.Mu + off, Var: mv.Var}
}

// Result holds the outcome of a statistical timing sweep.
type Result struct {
	// Arrival[id] is the arrival-time distribution at node id's
	// output (for inputs: the input arrival itself).
	Arrival []stats.MV
	// GateDelay[id] is the gate delay distribution used for gate id.
	GateDelay []stats.MV
	// Tmax is the circuit delay distribution: the stochastic max over
	// all primary outputs.
	Tmax stats.MV

	withTape bool
	// gateFold[id] holds the Jacobian of each two-operand max in the
	// left fold over gate id's fanins (k fanins produce k-1 steps).
	gateFold [][]stats.Jac2x4
	// outFold holds the Jacobians of the fold over primary outputs.
	outFold []stats.Jac2x4
}

// forwardNode computes node id's arrival (and, for gates, the gate
// delay and fold tape) from its fanins' already-final arrivals. Each
// call writes only slots owned by id, so independent nodes — all
// nodes of one level — may run concurrently.
func forwardNode(r *Result, m *delay.Model, S []float64, id netlist.NodeID, withTape bool) {
	nd := &m.G.C.Nodes[id]
	if nd.Kind == netlist.KindInput {
		r.Arrival[id] = m.Arrival[id]
		return
	}
	forwardGate(r, m, nd, id, m.GateMV(id, S), withTape)
}

// forwardNodeLoaded is forwardNode with the gate's capacitive load
// supplied by the caller — the persistent engine caches loads under
// the SDependents invalidation rule, so warm sweeps skip the
// per-node fanout scan. Bit-identical to forwardNode when the cached
// load equals the recomputed one (delay.Model.GateMVLoaded).
func forwardNodeLoaded(r *Result, m *delay.Model, S []float64, id netlist.NodeID, withTape bool, load float64) {
	nd := &m.G.C.Nodes[id]
	if nd.Kind == netlist.KindInput {
		r.Arrival[id] = m.Arrival[id]
		return
	}
	forwardGate(r, m, nd, id, m.GateMVLoaded(id, S, load), withTape)
}

// forwardGate is the shared gate body of the forward sweep: the fanin
// max fold (taped or not) plus the delay add, with the gate delay
// moments t already evaluated.
func forwardGate(r *Result, m *delay.Model, nd *netlist.Node, id netlist.NodeID, t stats.MV, withTape bool) {
	// U = max over fanin arrivals, folded two at a time
	// (paper eq 18b); each operand is shifted by its pin's
	// additive delay (eq 1's per-pin t_i). Constant shifts leave
	// the max Jacobians valid as-is, so the tape is unchanged.
	u := shiftMV(r.Arrival[nd.Fanin[0]], m.PinOff(id, 0))
	if withTape && len(nd.Fanin) > 1 {
		// Reuse the node's tape slots when already sized (the
		// persistent engine pre-carves them from one arena, so
		// re-evaluating a node is allocation-free); a fresh Result
		// allocates them here once.
		steps := r.gateFold[id]
		if len(steps) != len(nd.Fanin)-1 {
			steps = make([]stats.Jac2x4, len(nd.Fanin)-1)
			r.gateFold[id] = steps
		}
		for k, f := range nd.Fanin[1:] {
			u, steps[k] = stats.Max2Jac(u, shiftMV(r.Arrival[f], m.PinOff(id, k+1)))
		}
	} else {
		for k, f := range nd.Fanin[1:] {
			u = stats.Max2(u, shiftMV(r.Arrival[f], m.PinOff(id, k+1)))
		}
	}
	// T = U + t (paper eq 18c), with t from the sizable model.
	r.GateDelay[id] = t
	r.Arrival[id] = stats.Add(u, t)
}

// foldOutputs computes the circuit delay: the stochastic max over the
// primary outputs (paper eq 18a), folded in the fixed output order.
func foldOutputs(r *Result, g *netlist.Graph, withTape bool) {
	outs := g.C.Outputs
	tmax := r.Arrival[outs[0]]
	if withTape && len(outs) > 1 {
		// As in forwardNode, reuse the fold slots when already sized.
		if len(r.outFold) != len(outs)-1 {
			r.outFold = make([]stats.Jac2x4, len(outs)-1)
		}
		for i, o := range outs[1:] {
			tmax, r.outFold[i] = stats.Max2Jac(tmax, r.Arrival[o])
		}
	} else {
		for _, o := range outs[1:] {
			tmax = stats.Max2(tmax, r.Arrival[o])
		}
	}
	r.Tmax = tmax
}

// SweepOptions configures one flat forward or adjoint sweep.
type SweepOptions struct {
	// Workers bounds the level parallelism: <= 0 uses one worker per
	// CPU, 1 forces the serial sweep. Results are bit-identical for
	// every worker count.
	Workers int
	// Recorder, when non-nil, receives the sweep's wall-clock span
	// ("ssta.forward"/"ssta.adjoint"), its sweep counter and, for the
	// forward sweep, the levelization-shape gauges. Nil disables
	// instrumentation at the cost of one branch.
	Recorder telemetry.Recorder
}

// cancelled polls a done channel without blocking; nil never fires.
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

// forwardInto is the single flat forward sweep behind AnalyzeCtx (and
// so Analyze and AnalyzeWorkers). It fills r level by level: every
// node's moments are a pure function of its fanins' final moments and
// each node owns its slots, so the result is bit-identical for any
// worker count. done is polled between levels only — never inside
// one — so every runLevel barrier completes and no worker outlives a
// cancelled sweep; it reports false when done fired, leaving r
// partial.
func forwardInto(done <-chan struct{}, r *Result, m *delay.Model, S []float64, withTape bool, workers int, rec telemetry.Recorder) bool {
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	g := m.G
	workers = resolveWorkers(workers)
	if len(g.C.Nodes) < parallelMinNodes {
		workers = 1
	}
	for _, bucket := range g.Levels {
		if cancelled(done) {
			return false
		}
		if workers == 1 {
			// Inline: runLevel's closure escapes into goroutines and
			// would allocate on every level.
			for _, id := range bucket {
				forwardNode(r, m, S, id, withTape)
			}
			continue
		}
		runLevel(workers, len(bucket), func(i int) {
			forwardNode(r, m, S, bucket[i], withTape)
		})
	}
	foldOutputs(r, g, withTape)
	if rec != nil {
		rec.Span("ssta.forward", time.Since(t0))
		rec.Count("ssta.forward_sweeps", 1)
		recordGraphShape(m, rec)
	}
	return true
}

// AnalyzeCtx runs the forward statistical sweep for the model under
// the speed-factor assignment S (indexed by NodeID). When withTape is
// set, the per-max Jacobians are recorded so BackwardCtx can run. The
// result is bit-identical for every opt.Workers. It returns
// (nil, ctx.Err()) when ctx is cancelled before or between levels.
func AnalyzeCtx(ctx context.Context, m *delay.Model, S []float64, withTape bool, opt SweepOptions) (*Result, error) {
	n := len(m.G.C.Nodes)
	r := &Result{
		Arrival:   make([]stats.MV, n),
		GateDelay: make([]stats.MV, n),
		withTape:  withTape,
	}
	if withTape {
		r.gateFold = make([][]stats.Jac2x4, n)
	}
	if !forwardInto(ctx.Done(), r, m, S, withTape, opt.Workers, opt.Recorder) {
		return nil, ctx.Err()
	}
	return r, nil
}

// Analyze is the serial, uncancellable AnalyzeCtx.
func Analyze(m *delay.Model, S []float64, withTape bool) *Result {
	return AnalyzeWorkers(m, S, withTape, 1)
}

// seedAdjoint unfolds the output max in reverse, seeding the adjoint
// arrays from (d phi/d muTmax, d phi/d varTmax).
func (r *Result) seedAdjoint(g *netlist.Graph, seedMu, seedVar float64, adjMu, adjVar []float64) {
	outs := g.C.Outputs
	aMu, aVar := seedMu, seedVar // adjoint of the fold accumulator
	for i := len(outs) - 1; i >= 1; i-- {
		j := r.outFold[i-1]
		o := outs[i]
		// Operand B of the step is output i.
		adjMu[o] += aMu*j[0][2] + aVar*j[1][2]
		adjVar[o] += aMu*j[0][3] + aVar*j[1][3]
		// Accumulator A feeds the previous step.
		aMu, aVar = aMu*j[0][0]+aVar*j[1][0], aMu*j[0][1]+aVar*j[1][1]
	}
	adjMu[outs[0]] += aMu
	adjVar[outs[0]] += aVar
}

// backwardNode pushes gate id's adjoint into its speed-factor gradient
// and its fanins' adjoints, recording the gate's mean-delay adjoint in
// dmu (the statistical criticality of the gate when the seed is
// (1, 0)). All of id's own adjoint contributions must already be
// final — guaranteed when levels are processed in decreasing order,
// because every fanout sits at a strictly higher level.
func (r *Result) backwardNode(m *delay.Model, S []float64, id netlist.NodeID, adjMu, adjVar, grad, dmu []float64) {
	am, av := adjMu[id], adjVar[id]
	if am == 0 && av == 0 {
		return
	}
	// T = U + t: both summands inherit the adjoint unchanged.
	// Gate delay: var_t = Sigma.Var(mu_t), so the variance
	// adjoint folds into the mean-delay adjoint...
	muT := r.GateDelay[id].Mu
	d := am + av*m.Sigma.DVar(muT)
	dmu[id] = d
	m.GateMuGrad(id, S, d, grad)

	// U side: unfold the fanin max in reverse.
	fanin := m.G.C.Nodes[id].Fanin
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

// adjointScratch holds every slab one adjoint sweep needs; the
// entry-point wrappers allocate one per call.
type adjointScratch struct {
	// adjMu/adjVar accumulate d phi / d Arrival[id].{Mu, Var}; grad
	// receives d phi / d S; dmu receives each gate's mean-delay
	// adjoint (the statistical criticality under a (1, 0) seed).
	adjMu, adjVar, grad, dmu []float64
	// cMu/cVar are the per-fanin-pin contribution slots of the
	// parallel apply phase, laid out flat with the graph's memoized
	// FaninOff offsets (computed once in netlist.Compile — the scratch
	// must not re-derive the O(V+E) edge bookkeeping per sweep).
	cMu, cVar []float64
}

// ensure sizes and zeroes the scratch for graph g; the parallel slots
// are only (re)built when workers > 1 will use them.
func (sc *adjointScratch) ensure(g *netlist.Graph, parallel bool) {
	n := len(g.C.Nodes)
	if len(sc.adjMu) != n {
		sc.adjMu = make([]float64, n)
		sc.adjVar = make([]float64, n)
		sc.grad = make([]float64, n)
		sc.dmu = make([]float64, n)
	} else {
		clear(sc.adjMu)
		clear(sc.adjVar)
		clear(sc.grad)
		clear(sc.dmu)
	}
	if !parallel {
		return
	}
	if len(sc.cMu) != g.Edges {
		sc.cMu = make([]float64, g.Edges)
		sc.cVar = make([]float64, g.Edges)
	}
	// cMu/cVar need no zeroing: the apply phase reads exactly the
	// slots the compute phase just wrote.
}

// backwardInto is the single flat adjoint sweep behind BackwardCtx
// and the gradient and criticality entry points: it runs the sweep
// with all state in sc and returns sc.grad, or nil when done fired
// between levels. The serial and parallel paths fold every
// floating-point accumulation in the same order, so the result is
// bit-identical for any worker count.
func (r *Result) backwardInto(done <-chan struct{}, m *delay.Model, S []float64, seedMu, seedVar float64, workers int, sc *adjointScratch, rec telemetry.Recorder) []float64 {
	if !r.withTape {
		panic("ssta: adjoint sweep requires a taped Analyze")
	}
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	g := m.G
	workers = resolveWorkers(workers)
	if len(g.C.Nodes) < parallelMinNodes {
		workers = 1
	}
	sc.ensure(g, workers > 1)
	r.seedAdjoint(g, seedMu, seedVar, sc.adjMu, sc.adjVar)
	adjMu, adjVar, dmu := sc.adjMu, sc.adjVar, sc.dmu
	cMu, cVar, off := sc.cMu, sc.cVar, g.FaninOff
	// Level 0 holds only primary inputs, which have no gradient.
	for l := len(g.Levels) - 1; l >= 1; l-- {
		if cancelled(done) {
			return nil
		}
		bucket := g.Levels[l]
		if workers == 1 {
			// Inline, as in forwardInto: no escaping closure.
			for _, id := range bucket {
				r.backwardNode(m, S, id, adjMu, adjVar, sc.grad, dmu)
			}
			continue
		}
		// Compute phase: pure reads of finalized adjoints and the
		// tape; writes only to slots owned by the node.
		runLevel(workers, len(bucket), func(i int) {
			id := bucket[i]
			am, av := adjMu[id], adjVar[id]
			if am == 0 && av == 0 {
				return
			}
			dmu[id] = am + av*m.Sigma.DVar(r.GateDelay[id].Mu)
			fanin := g.C.Nodes[id].Fanin
			uMu, uVar := am, av
			steps := r.gateFold[id]
			base := off[id]
			for k := len(fanin) - 1; k >= 1; k-- {
				j := steps[k-1]
				cMu[base+k] = uMu*j[0][2] + uVar*j[1][2]
				cVar[base+k] = uMu*j[0][3] + uVar*j[1][3]
				uMu, uVar = uMu*j[0][0]+uVar*j[1][0], uMu*j[0][1]+uVar*j[1][1]
			}
			cMu[base] = uMu
			cVar[base] = uVar
		})
		// Apply phase: fixed bucket order, mirroring the serial
		// per-node write order (fanin pins high to low, pin 0 last).
		for _, id := range bucket {
			am, av := adjMu[id], adjVar[id]
			if am == 0 && av == 0 {
				continue
			}
			m.GateMuGrad(id, S, dmu[id], sc.grad)
			fanin := g.C.Nodes[id].Fanin
			base := off[id]
			for k := len(fanin) - 1; k >= 1; k-- {
				adjMu[fanin[k]] += cMu[base+k]
				adjVar[fanin[k]] += cVar[base+k]
			}
			adjMu[fanin[0]] += cMu[base]
			adjVar[fanin[0]] += cVar[base]
		}
	}
	if rec != nil {
		rec.Span("ssta.adjoint", time.Since(t0))
		rec.Count("ssta.adjoint_sweeps", 1)
	}
	return sc.grad
}

// BackwardCtx propagates the adjoint seed (d phi/d muTmax, d phi/d
// varTmax) back through the recorded sweep, returning d phi/d S as a
// vector indexed by NodeID (input entries are zero). The Result must
// have been produced with withTape set and the same (m, S).
//
// The sweep visits levels in decreasing order and nodes inside a
// level in bucket order — the canonical adjoint accumulation order,
// reproduced exactly for any opt.Workers: workers compute each node's
// fanin contributions into per-node scratch, and after the level
// barrier the coordinating goroutine applies them in bucket order. It
// returns (nil, ctx.Err()) when ctx is cancelled before or between
// levels.
func (r *Result) BackwardCtx(ctx context.Context, m *delay.Model, S []float64, seedMu, seedVar float64, opt SweepOptions) ([]float64, error) {
	var sc adjointScratch
	if grad := r.backwardInto(ctx.Done(), m, S, seedMu, seedVar, opt.Workers, &sc, opt.Recorder); grad != nil {
		return grad, nil
	}
	return nil, ctx.Err()
}

// Backward is the serial, uncancellable BackwardCtx.
func (r *Result) Backward(m *delay.Model, S []float64, seedMu, seedVar float64) []float64 {
	var sc adjointScratch
	return r.backwardInto(nil, m, S, seedMu, seedVar, 1, &sc, nil)
}

// ObjectiveMuPlusKSigma returns phi = mu + k*sigma of the circuit
// delay together with the adjoint seed pair for Backward. At sigma ->
// 0 with k != 0 the seed saturates using a variance floor to keep the
// gradient finite. A non-finite k panics here, the single funnel every
// mu + k*sigma objective path (flat, persistent, batch)
// flows through, so a NaN risk factor cannot surface downstream as a
// silently absurd circuit delay.
func ObjectiveMuPlusKSigma(tmax stats.MV, k float64) (phi, seedMu, seedVar float64) {
	checkRiskFactor(k, "ObjectiveMuPlusKSigma")
	if k == 0 {
		return tmax.Mu, 1, 0
	}
	v := tmax.Var
	const floor = 1e-18
	if v < floor {
		v = floor
	}
	sigma := math.Sqrt(v)
	return tmax.Mu + k*sigma, 1, k / (2 * sigma)
}

// GradMuPlusKSigma is the serial GradMuPlusKSigmaWorkers.
func GradMuPlusKSigma(m *delay.Model, S []float64, k float64) (float64, []float64) {
	return GradMuPlusKSigmaWorkers(m, S, k, 1)
}

// CriticalityWorkers returns d muTmax / d mu_t(gate) for every gate:
// how much the mean circuit delay moves per unit of that gate's mean
// delay. In deterministic STA this is the 0/1 indicator of
// critical-path membership; statistically it is a smooth weight in
// [0, 1] spread over competing paths — the "statistical criticality"
// used for reporting in cmd/ssta. The per-gate criticality is exactly
// the gate's mean-delay adjoint under the (d muTmax, d varTmax) =
// (1, 0) seed, which the adjoint sweep records as a byproduct. The
// result is bit-identical for any worker count.
func CriticalityWorkers(m *delay.Model, S []float64, workers int) []float64 {
	r := AnalyzeWorkers(m, S, true, workers)
	var sc adjointScratch
	r.backwardInto(nil, m, S, 1, 0, workers, &sc, nil)
	return sc.dmu
}
