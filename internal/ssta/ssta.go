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
// internal/sizing is built on this. A taped sweep records each
// two-operand max's Jacobian as one compact stats.Step (six floats);
// the adjoint rebuilds the two entries the step does not store with
// the kernel's own additions, so the gradient is bit for bit the one
// a full 2x4 Jacobian tape gives. Each sweep resolves the model's
// sigma once (delay.ResolveSigma), so its per-gate Var and DVar calls
// inline.
package ssta

import (
	"context"
	"math"
	"strconv"
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
	// left fold over gate id's fanins (k fanins produce k-1 steps),
	// in compact stats.Step form.
	gateFold [][]stats.Step
	// outFold holds the steps of the fold over primary outputs.
	outFold []stats.Step
}

// forwardNode computes node id's arrival (and, for gates, the gate
// delay and fold tape) from its fanins' already-final arrivals. sig is
// m.Sigma resolved for the sweep.
func forwardNode(r *Result, m *delay.Model, sig *delay.ResolvedSigma, S []float64, id netlist.NodeID, withTape bool) {
	nd := &m.G.C.Nodes[id]
	if nd.Kind == netlist.KindInput {
		r.Arrival[id] = m.Arrival[id]
		return
	}
	var steps []stats.Step
	if withTape && len(nd.Fanin) > 1 {
		steps = make([]stats.Step, len(nd.Fanin)-1)
		r.gateFold[id] = steps
	}
	mu := m.GateMu(id, S)
	t := stats.MV{Mu: mu, Var: sig.Var(mu)}
	forwardGate(r.Arrival, r.GateDelay, id, nd.Fanin, m.PinOffset[id], steps, t)
}

// sweepIndex is the index type of a forward sweep's slabs: NodeID in
// the flat sweeps, a schedule position (int32) in the persistent
// engine.
type sweepIndex interface{ netlist.NodeID | int32 }

// forwardGate is the one gate body of every forward sweep: the fanin
// max fold plus the delay add, with the gate delay moments t already
// evaluated, writing gate at's arrival and delay into arr and gd.
// fanin lists the gate's fanin pins in pin order and off their
// additive delays (nil: uniform pins); a non-nil steps receives the
// fold's len(fanin)-1 max Jacobians as compact steps. The flat sweep
// passes NodeIDs, the node's own fanin list, the model's offsets and a
// fresh tape;
// the persistent engine passes schedule positions, its schedule's
// position-ordered copies and a span of its tape arena.
func forwardGate[I sweepIndex](arr, gd []stats.MV, at I, fanin []I, off []float64, steps []stats.Step, t stats.MV) {
	// U = max over fanin arrivals, folded two at a time
	// (paper eq 18b); each operand is shifted by its pin's
	// additive delay (eq 1's per-pin t_i). Constant shifts leave
	// the max Jacobians valid as-is, so the tape is unchanged.
	u := arr[fanin[0]]
	if off != nil {
		u = shiftMV(u, off[0])
	}
	if steps != nil {
		for k, f := range fanin[1:] {
			v := arr[f]
			if off != nil {
				v = shiftMV(v, off[k+1])
			}
			u = stats.Max2StepInto(u, v, &steps[k])
		}
	} else {
		for k, f := range fanin[1:] {
			v := arr[f]
			if off != nil {
				v = shiftMV(v, off[k+1])
			}
			u = stats.Max2(u, v)
		}
	}
	// T = U + t (paper eq 18c), with t from the sizable model.
	gd[at] = t
	arr[at] = stats.Add(u, t)
}

// foldOutputs returns the circuit delay: the stochastic max over the
// primary outputs outs (paper eq 18a), folded in the fixed output
// order. A non-nil fold receives the len(outs)-1 max steps.
func foldOutputs[I sweepIndex](arr []stats.MV, outs []I, fold []stats.Step) stats.MV {
	tmax := arr[outs[0]]
	if fold != nil {
		for i, o := range outs[1:] {
			tmax = stats.Max2StepInto(tmax, arr[o], &fold[i])
		}
	} else {
		for _, o := range outs[1:] {
			tmax = stats.Max2(tmax, arr[o])
		}
	}
	return tmax
}

// SweepOptions configures one flat forward sweep.
type SweepOptions struct {
	// Recorder, when non-nil, receives the sweep's wall-clock span
	// ("ssta.forward"), its sweep counter and the levelization-shape
	// gauges. Nil disables instrumentation at the cost of one branch.
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
// so Analyze): one serial pass over the level buckets, each node
// computed from its fanins' final moments. done is polled between
// levels; it reports false when done fired, leaving r partial.
func forwardInto(done <-chan struct{}, r *Result, m *delay.Model, S []float64, withTape bool, rec telemetry.Recorder) bool {
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	g := m.G
	sig := delay.ResolveSigma(m.Sigma)
	for _, bucket := range g.Levels {
		if cancelled(done) {
			return false
		}
		for _, id := range bucket {
			forwardNode(r, m, &sig, S, id, withTape)
		}
	}
	if outs := g.C.Outputs; withTape && len(outs) > 1 {
		r.outFold = make([]stats.Step, len(outs)-1)
	}
	r.Tmax = foldOutputs(r.Arrival, g.C.Outputs, r.outFold)
	if rec != nil {
		rec.Span("ssta.forward", time.Since(t0))
		rec.Count("ssta.forward_sweeps", 1)
		recordGraphShape(m, rec)
	}
	return true
}

// AnalyzeCtx runs the forward statistical sweep for the model under
// the speed-factor assignment S (indexed by NodeID, one entry per
// node; any other length panics). When withTape is set, the per-max
// Jacobians are recorded so Backward can run. It returns
// (nil, ctx.Err()) when ctx is cancelled before or between levels.
func AnalyzeCtx(ctx context.Context, m *delay.Model, S []float64, withTape bool, opt SweepOptions) (*Result, error) {
	n := len(m.G.C.Nodes)
	if len(S) != n {
		panic("ssta: AnalyzeCtx got " + strconv.Itoa(len(S)) + " sizes for " +
			strconv.Itoa(n) + " nodes")
	}
	r := &Result{
		Arrival:   make([]stats.MV, n),
		GateDelay: make([]stats.MV, n),
		withTape:  withTape,
	}
	if withTape {
		r.gateFold = make([][]stats.Step, n)
	}
	if !forwardInto(ctx.Done(), r, m, S, withTape, opt.Recorder) {
		return nil, ctx.Err()
	}
	return r, nil
}

// Analyze is the uncancellable, uninstrumented AnalyzeCtx.
func Analyze(m *delay.Model, S []float64, withTape bool) *Result {
	r, _ := AnalyzeCtx(context.Background(), m, S, withTape, SweepOptions{})
	return r
}

// seedAdjoint unfolds the output max in reverse, seeding the adjoint
// arrays from (d phi/d muTmax, d phi/d varTmax).
func (r *Result) seedAdjoint(g *netlist.Graph, seedMu, seedVar float64, adjMu, adjVar []float64) {
	outs := g.C.Outputs
	aMu, aVar := seedMu, seedVar // adjoint of the fold accumulator
	for i := len(outs) - 1; i >= 1; i-- {
		s := &r.outFold[i-1]
		o := outs[i]
		// Operand B of the step is output i.
		adjMu[o] += aMu*s[1] + aVar*s[4]
		adjVar[o] += aMu*s[2] + aVar*s.DVarB()
		// Accumulator A feeds the previous step.
		aMu, aVar = aMu*s[0]+aVar*s[3], aMu*s[2]+aVar*s.DVarA()
	}
	adjMu[outs[0]] += aMu
	adjVar[outs[0]] += aVar
}

// backwardNode pushes gate id's adjoint into its speed-factor gradient
// and its fanins' adjoints and, when dmu is non-nil, records the
// gate's mean-delay adjoint there (the statistical criticality of the
// gate when the seed is (1, 0)). sig is m.Sigma resolved for the
// sweep. All of id's own adjoint contributions must already be final
// — guaranteed when levels are processed in decreasing order, because
// every fanout sits at a strictly higher level.
func (r *Result) backwardNode(m *delay.Model, sig *delay.ResolvedSigma, S []float64, id netlist.NodeID, adjMu, adjVar, grad, dmu []float64) {
	am, av := adjMu[id], adjVar[id]
	if am == 0 && av == 0 {
		return
	}
	// T = U + t: both summands inherit the adjoint unchanged.
	// Gate delay: var_t = Sigma.Var(mu_t), so the variance
	// adjoint folds into the mean-delay adjoint...
	muT := r.GateDelay[id].Mu
	d := am + av*sig.DVar(muT)
	if dmu != nil {
		dmu[id] = d
	}
	m.GateMuGrad(id, S, d, grad)

	// U side: unfold the fanin max in reverse; each step's two rebuilt
	// entries are the sums its Jacobian form holds (stats.Step).
	fanin := m.G.C.Nodes[id].Fanin
	uMu, uVar := am, av
	steps := r.gateFold[id]
	for k := len(fanin) - 1; k >= 1; k-- {
		s := &steps[k-1]
		f := fanin[k]
		adjMu[f] += uMu*s[1] + uVar*s[4]
		adjVar[f] += uMu*s[2] + uVar*s.DVarB()
		uMu, uVar = uMu*s[0]+uVar*s[3], uMu*s[2]+uVar*s.DVarA()
	}
	adjMu[fanin[0]] += uMu
	adjVar[fanin[0]] += uVar
}

// Backward propagates the adjoint seed (d phi/d muTmax, d phi/d
// varTmax) back through the recorded sweep, returning d phi/d S as a
// vector indexed by NodeID (input entries are zero). The Result must
// have been produced with withTape set and the same (m, S).
//
// The sweep visits levels in decreasing order and nodes inside a
// level in bucket order — the canonical adjoint accumulation order,
// which the persistent engine's adjoint reproduces bit for
// bit (see Hier).
func (r *Result) Backward(m *delay.Model, S []float64, seedMu, seedVar float64) []float64 {
	return r.backward(m, S, seedMu, seedVar, nil)
}

// backward is Backward that, when dmu is non-nil, also records each
// gate's mean-delay adjoint there (the statistical criticality under
// a (1, 0) seed).
func (r *Result) backward(m *delay.Model, S []float64, seedMu, seedVar float64, dmu []float64) []float64 {
	if !r.withTape {
		panic("ssta: adjoint sweep requires a taped Analyze")
	}
	g := m.G
	n := len(g.C.Nodes)
	sig := delay.ResolveSigma(m.Sigma)
	// adjMu/adjVar accumulate d phi / d Arrival[id].{Mu, Var}.
	adjMu, adjVar := make([]float64, n), make([]float64, n)
	grad := make([]float64, n)
	r.seedAdjoint(g, seedMu, seedVar, adjMu, adjVar)
	// Level 0 holds only primary inputs, which have no gradient.
	for l := len(g.Levels) - 1; l >= 1; l-- {
		for _, id := range g.Levels[l] {
			r.backwardNode(m, &sig, S, id, adjMu, adjVar, grad, dmu)
		}
	}
	return grad
}

// checkRiskFactor rejects NaN and infinite risk factors at the API
// boundary: a non-finite k would otherwise poison every lane of a
// sweep with NaN and surface as a silently absurd circuit delay far
// from its cause (the quantile clamps floor extreme values, but a NaN
// k sails through any clamp because every comparison with NaN is
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

// ObjectiveMuPlusKSigma returns phi = mu + k*sigma of the circuit
// delay together with the adjoint seed pair for Backward. At sigma ->
// 0 with k != 0 the seed saturates using a variance floor to keep the
// gradient finite. A non-finite k panics here, the single funnel every
// mu + k*sigma objective path (flat and persistent) flows through, so
// a NaN risk factor cannot surface downstream as a silently absurd
// circuit delay.
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

// GradMuPlusKSigma returns phi = mu + k*sigma of the circuit delay
// and d phi/d S: one taped forward sweep plus one adjoint sweep.
func GradMuPlusKSigma(m *delay.Model, S []float64, k float64) (float64, []float64) {
	r := Analyze(m, S, true)
	phi, sMu, sVar := ObjectiveMuPlusKSigma(r.Tmax, k)
	return phi, r.Backward(m, S, sMu, sVar)
}

// Criticality returns d muTmax / d mu_t(gate) for every gate: how
// much the mean circuit delay moves per unit of that gate's mean
// delay. In deterministic STA this is the 0/1 indicator of
// critical-path membership; statistically it is a smooth weight in
// [0, 1] spread over competing paths — the "statistical criticality"
// used for reporting in cmd/ssta. The per-gate criticality is exactly
// the gate's mean-delay adjoint under the (d muTmax, d varTmax) =
// (1, 0) seed, which the adjoint sweep records as a byproduct.
func Criticality(m *delay.Model, S []float64) []float64 {
	dmu := make([]float64, len(S))
	Analyze(m, S, true).backward(m, S, 1, 0, dmu)
	return dmu
}

// TopCritical ranks c's gates by crit (indexed by NodeID, as
// Criticality and Hier.Criticality return it) and returns the
// first top of them: criticality descending, ties by gate name
// ascending — the one order every criticality listing uses. NaN ranks
// after every number and -0 ties with +0, so the order is total.
// top <= 0 or top >= the gate count returns every gate. A bounded heap
// keeps the best k = min(top, #gates) gates seen so far and only those
// survivors are sorted: O(V log k) time, one O(k) allocation.
func TopCritical(c *netlist.Circuit, crit []float64, top int) []netlist.NodeID {
	k := c.NumGates()
	if top > 0 && top < k {
		k = top
	}
	r := critRank{c: c, crit: crit, h: make([]netlist.NodeID, 0, k)}
	for i := range c.Nodes {
		if c.Nodes[i].Kind != netlist.KindGate {
			continue
		}
		id := netlist.NodeID(i)
		switch {
		case len(r.h) < k:
			r.h = append(r.h, id)
			r.up(len(r.h) - 1)
		case r.before(id, r.h[0]):
			r.h[0] = id
			r.down(0, k)
		}
	}
	// Heapsort the survivors in place: moving the worst-ranked root to
	// the back each round leaves the slice best first.
	for n := len(r.h) - 1; n > 0; n-- {
		r.h[0], r.h[n] = r.h[n], r.h[0]
		r.down(0, n)
	}
	return r.h
}

// critRank is TopCritical's heap: h[0] is the worst-ranked gate kept.
type critRank struct {
	c    *netlist.Circuit
	crit []float64
	h    []netlist.NodeID
}

// before reports whether gate a ranks ahead of gate b. The node id is
// the last tie-break, for hand-built circuits that reuse a name.
func (r *critRank) before(a, b netlist.NodeID) bool {
	ca, cb := r.crit[a], r.crit[b]
	if na, nb := math.IsNaN(ca), math.IsNaN(cb); na || nb {
		if na != nb {
			return nb
		}
	} else if ca != cb {
		return ca > cb
	}
	if x, y := r.c.Nodes[a].Name, r.c.Nodes[b].Name; x != y {
		return x < y
	}
	return a < b
}

func (r *critRank) up(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !r.before(r.h[p], r.h[j]) {
			return
		}
		r.h[p], r.h[j] = r.h[j], r.h[p]
		j = p
	}
}

// down restores the heap below i over h[:n].
func (r *critRank) down(i, n int) {
	for {
		w := 2*i + 1
		if w >= n {
			return
		}
		if c := w + 1; c < n && r.before(r.h[w], r.h[c]) {
			w = c
		}
		if !r.before(r.h[i], r.h[w]) {
			return
		}
		r.h[i], r.h[w] = r.h[w], r.h[i]
		i = w
	}
}
