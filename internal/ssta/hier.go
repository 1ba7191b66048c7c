package ssta

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// This file implements the persistent SSTA engine. Statistical-timing-
// driven sizers are dominated by repeated localized re-evaluations —
// one gate's speed factor changes, everything else stays put — yet a
// fresh Analyze pays an allocating O(V) sweep every time. Hier keeps
// the whole forward state (arrivals, gate delays, the adjoint tape,
// every gate's load) alive in arena-backed slabs across evaluations
// and re-runs only the dirty cone:
//
//   - SetSize(g, s) marks dirty exactly the gates whose delay depends
//     on S[g]: g itself and its fanin drivers, whose load term
//     c*sum(C_in*S) contains C_in[g]*S[g] (delay.Model.SDependents).
//   - Pending work is one bitset over schedule positions. Update()
//     scans it once in ascending position — levels ascending, the full
//     sweep's own order — so the cone walks the dense schedule, tape
//     and arrival slabs forward. A node whose recomputed arrival
//     moments are bit-identical to before does not propagate to its
//     fanout (early cutoff), so the dirty region is the true changed
//     cone, not the full structural cone; a node that did change sets
//     its fanouts' bits, which always lie ahead of the scan. The unit
//     is the node: a coarser rule re-evaluates a whole group around
//     every changed node, which costs more than skipping a clean group
//     in O(1) saves on circuits of a few thousand gates.
//   - SetSizes(ids, x) is the whole-vector move for callers that change
//     most gates at once (the reduced NLP's line search): it skips the
//     marking and cutoff bookkeeping, recomputes every load and runs
//     the full forward pass, which is what the dirty cone would have
//     covered anyway.
//   - Every recomputation runs the same forward fold in the same order
//     as a fresh sweep, and unchanged nodes hold values a fresh sweep
//     would recompute identically — so the engine state is
//     bit-identical to Analyze at the current sizes.
//
// Trial/Commit/Rollback bound what-if moves: Rollback restores every
// overwritten slab entry, the speed factors and the cached loads from
// an undo log, so a rejected move costs O(touched) instead of a
// recompute.
//
// Every pass is serial. The full forward pass is the levelized sweep
// and the adjoint the flat recursion over a slab of (mu, var) pairs,
// in the flat sweeps' own node order, so the gradient is the same
// float program as Result.Backward. Parallel passes measured slower than
// these at every circuit size tried (EXPERIMENTS.md, "Serial
// persistent engine"). The tape holds 48-byte stats.Step values,
// whose two rebuilt Jacobian entries the adjoint recomputes with the
// kernel's own additions, and the model's sigma is resolved once at
// NewHier into a delay.ResolvedSigma whose Var and DVar inline, so
// under the paper's Proportional model the loops call no interface
// method (EXPERIMENTS.md, "Compact tape steps and a resolved
// σ-model"). The adjoint is one loop that clears no O(V) slab: it
// zeroes each adjoint pair as it consumes it and assigns each gate's
// first gradient term, and on Criticality's pass it stores the
// per-gate criticality in the gradient slab instead (see backward;
// EXPERIMENTS.md, "One lean sweep-order adjoint").
//
// Slab layout: the slabs a pass walks are indexed by schedule
// position (sched.go), not by NodeID — arrivals, gate delays, speed
// factors, cached loads, the adjoint, the gradient (or criticality)
// and the trial stamps and undo log, next to the schedule's own
// position-ordered pins and model parameters (TInt, CLoad, per-pin
// offsets and C_in, input arrivals). A pass therefore reads its
// slabs forward instead of jumping through NodeID space at every
// node, and the adjoint tape is one arena carved in the same order,
// so a level's tape span is contiguous. The NodeID-indexed API
// translates at the boundary: SetSize, Arrival and GateDelay through
// the schedule's pos map in O(1), Sizes from a NodeID-ordered copy
// of the speed factors kept in step with the positional one, and
// Backward, GradMuPlusKSigma and Criticality by one pass through the
// pos map. Callers that scan every gate per pass read the positional
// slabs directly (SweepGradMuPlusKSigma, SweepOrder, SweepSizes): the
// greedy sizer picks its gate from them without the translation.
// Positions renumber nothing the flat sweeps see: folds keep pin
// order, loads and gradient fan-outs keep Graph.Fanout order and the
// adjoint keeps the flat level order, so every float is added in the
// flat sweeps' order.

// HierOptions configures a persistent engine.
type HierOptions struct {
	// Workers is ignored: every pass is serial. The field stays so
	// callers written against the former worker-count option (the
	// benchmark module among them) still build.
	Workers int
	// Recorder, when non-nil, receives one "inc.update" event per
	// Update that had work pending, carrying the dirty-node and
	// frontier counts, and one "hier.sweep" event per Resweep or
	// moving SetSizes. Nil disables instrumentation at zero cost.
	Recorder telemetry.Recorder
}

// Inc and IncOptions are the engine's former incremental names; the
// benchmark module still builds against them.
type (
	Inc        = Hier
	IncOptions = HierOptions
)

// NewInc is NewHier under the engine's former incremental name.
func NewInc(m *delay.Model, S []float64, opt IncOptions) *Inc { return NewHier(m, S, opt) }

// AnalyzeWorkers is Analyze under its former worker-count signature:
// workers is ignored; the benchmark module still builds against it.
func AnalyzeWorkers(m *delay.Model, S []float64, withTape bool, workers int) *Result {
	return Analyze(m, S, withTape)
}

// GradMuPlusKSigmaWorkers is GradMuPlusKSigma under its former
// worker-count signature: workers is ignored; the benchmark module
// still builds against it.
func GradMuPlusKSigmaWorkers(m *delay.Model, S []float64, k float64, workers int) (float64, []float64) {
	return GradMuPlusKSigma(m, S, k)
}

// Hier is the persistent SSTA engine. It is not safe for concurrent
// use; one engine serves one evaluation loop.
type Hier struct {
	m   *delay.Model
	rec telemetry.Recorder
	// sig is m.Sigma resolved once at NewHier, so the forward and
	// adjoint loops evaluate it inline.
	sig delay.ResolvedSigma

	// sc is the compiled sweep schedule every pass walks; every slab
	// below without a NodeID note is indexed by its positions.
	sc schedule

	// s is the engine's current speed-factor assignment by NodeID
	// (owned copy, the Sizes view); sp holds the same values by
	// position. SetSize and SetSizes write both.
	s, sp []float64

	// arr and gd hold the arrival and gate delay moments, tmax and
	// outFold the output fold. The fold steps live in tapeArena at
	// the schedule's fixed offsets, carved once, so re-evaluating a
	// node rewrites its tape slots in place.
	arr, gd   []stats.MV
	tmax      stats.MV
	outFold   []stats.Step
	tapeArena []stats.Step

	// load caches every gate's capacitive load (delay.Model.Load, a
	// pure function of the fanout speed factors). SetSize recomputes
	// exactly the fanin drivers' entries — the only loads S[id]
	// appears in — and SetSizes all of them, so warm sweeps skip the
	// per-gate fanout scan in both the forward delay and the gradient
	// accumulation. Cached values are bitwise what Load would
	// recompute.
	load []float64

	// adj is the adjoint slab: adj[p] holds position p's (mu, var)
	// arrival adjoint as one pair, so a node's pair shares a cache
	// line. gp receives each pass's result by position: the gradient,
	// or the criticality on Criticality's pass. grad is the
	// NodeID-indexed copy the NodeID API returns.
	adj      []stats.MV
	gp, grad []float64

	// Dirty tracking: bit p of pend is set while the node at schedule
	// position p awaits re-evaluation; [loW, hiW] spans the words that
	// may hold set bits (empty when hiW < loW).
	pend     []uint64
	loW, hiW int

	updates int // Update calls that had work, for the event stream

	// Trial state: a generation-stamped undo log. gen identifies the
	// open trial; nodeGen/sGen record which slabs and sizes were
	// already saved this trial so each is logged at most once. The
	// stamps are 32-bit; Trial clears them when gen wraps.
	inTrial      bool
	gen          uint32
	nodeGen      []uint32
	sGen         []uint32
	logNodes     []nodeSave
	logTape      []stats.Step
	logS         []sizeSave
	savedOutFold []stats.Step
	savedTmax    stats.MV
}

// nodeSave is one undo-log entry: the pre-trial arrival and gate delay
// of the node at position p, plus the offset of its saved tape steps
// in logTape (the count is implied by the node's fanin arity).
type nodeSave struct {
	p       int32
	arr, gd stats.MV
	tapeAt  int
}

// sizeSave is one undo-log entry for the speed factor at position p.
type sizeSave struct {
	p int32
	s float64
}

// NewHier builds an engine for the model at the speed-factor
// assignment S (copied), compiles its sweep schedule and runs the
// initial full taped sweep.
func NewHier(m *delay.Model, S []float64, opt HierOptions) *Hier {
	n := len(m.G.C.Nodes)
	if len(S) != n {
		panic(fmt.Sprintf("ssta: NewHier got %d sizes for %d nodes", len(S), n))
	}
	h := &Hier{
		m:       m,
		rec:     opt.Recorder,
		sig:     delay.ResolveSigma(m.Sigma),
		sc:      compileSchedule(m),
		s:       append([]float64(nil), S...),
		sp:      make([]float64, n),
		arr:     make([]stats.MV, n),
		gd:      make([]stats.MV, n),
		load:    make([]float64, n),
		adj:     make([]stats.MV, n),
		gp:      make([]float64, n),
		grad:    make([]float64, n),
		pend:    make([]uint64, (n+63)/64),
		nodeGen: make([]uint32, n),
		sGen:    make([]uint32, n),
	}
	for p, id := range h.sc.order {
		h.sp[p] = S[id]
	}
	h.clearSpan()
	h.reloadAll()
	// One arena holds every gate's fold steps, so re-evaluations are
	// in-place.
	h.tapeArena = make([]stats.Step, h.sc.tapeLen)
	if no := len(h.sc.outs); no > 1 {
		h.outFold = make([]stats.Step, no-1)
		h.savedOutFold = make([]stats.Step, no-1)
	}
	h.resweep()
	return h
}

// clearSpan resets the pending word span to the empty sentinel.
func (h *Hier) clearSpan() {
	h.loW, h.hiW = len(h.pend), -1
}

// markDirty queues the node at position p for re-evaluation
// (idempotent).
func (h *Hier) markDirty(p int) {
	w := p >> 6
	h.pend[w] |= 1 << (p & 63)
	if w < h.loW {
		h.loW = w
	}
	if w > h.hiW {
		h.hiW = w
	}
}

// discardPending drops every pending dirty mark.
func (h *Hier) discardPending() {
	if h.hiW >= h.loW {
		clear(h.pend[h.loW : h.hiW+1])
	}
	h.clearSpan()
}

// SetSize sets gate id's speed factor, marks the load-dependent gates
// dirty (id and its fanin drivers — the delay.Model.SDependents rule)
// and recomputes the drivers' cached loads. A bit-identical size is a
// no-op. The change takes effect at the next Update.
//
// A non-finite size panics at this API boundary (the checkRiskFactor
// convention): NaN would poison the slabs and the load cache and,
// being != to itself, could never even no-op out through the
// bit-compare guard below, so it must not reach the engine at all.
// Callers exposing SetSize to untrusted input (the service's PATCH
// path) validate first.
func (h *Hier) SetSize(id netlist.NodeID, s float64) {
	if h.m.G.C.Nodes[id].Kind != netlist.KindGate {
		panic("ssta: Hier.SetSize on a non-gate node")
	}
	if math.IsNaN(s) || math.IsInf(s, 0) {
		panic("ssta: Hier.SetSize requires a finite speed factor, got " + formatFloat(s))
	}
	if h.s[id] == s {
		return
	}
	p := int(h.sc.pos[id])
	if h.inTrial && h.sGen[p] != h.gen {
		h.sGen[p] = h.gen
		h.logS = append(h.logS, sizeSave{p: int32(p), s: h.sp[p]})
	}
	h.s[id], h.sp[p] = s, s
	// The SDependents rule over positions: the gate itself and its
	// fanin drivers, which sit past the inputs.
	h.markDirty(p)
	for _, f := range h.sc.fanin(p) {
		if int(f) >= h.sc.nIn {
			h.markDirty(int(f))
		}
	}
	h.reloadDrivers(p)
}

// SetSizes moves the engine to a whole new assignment: gate ids[i]
// takes speed factor x[i]. It is the bulk counterpart of SetSize for
// callers that move most gates at once — a line search moves every
// free variable — where the dirty cone covers nearly the whole graph
// and per-gate marking and early-cutoff compares are pure overhead.
// It writes the sizes that changed, recomputes every cached load in
// one O(E) pass, drops pending marks and runs the full forward pass
// (Resweep's), so the state is bit-identical to a fresh taped sweep
// at the new sizes, like Update's. It reports whether any size
// changed; if none did, the engine is left as it was, pending marks
// included.
//
// Misuse panics before anything is written, like SetSize: unequal
// lengths, a non-gate id, a non-finite size, or a call inside a trial
// (the bulk pass keeps no undo log).
func (h *Hier) SetSizes(ids []netlist.NodeID, x []float64) bool {
	if len(ids) != len(x) {
		panic(fmt.Sprintf("ssta: Hier.SetSizes got %d ids and %d sizes", len(ids), len(x)))
	}
	if h.inTrial {
		panic("ssta: Hier.SetSizes inside a trial")
	}
	nodes := h.m.G.C.Nodes
	for i, id := range ids {
		if nodes[id].Kind != netlist.KindGate {
			panic("ssta: Hier.SetSizes on a non-gate node")
		}
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			panic("ssta: Hier.SetSizes requires finite speed factors, got " + formatFloat(x[i]))
		}
	}
	moved := false
	for i, id := range ids {
		if h.s[id] != x[i] {
			h.s[id], h.sp[h.sc.pos[id]] = x[i], x[i]
			moved = true
		}
	}
	if !moved {
		return false
	}
	h.reloadAll()
	h.discardPending()
	h.resweep()
	h.sweepEvent()
	return true
}

// loadAt recomputes the load of the gate at position p: Load's
// expression — C_load plus the fanout pins' C_in*S terms in
// Graph.Fanout order — over the schedule's copies, so it is bitwise
// what Load returns.
func (h *Hier) loadAt(p int) float64 {
	sc := &h.sc
	load := sc.cload[p]
	a, b := sc.fanout(p)
	cin := sc.pinCIn[a:b]
	for i, f := range sc.fout[a:b] {
		load += cin[i] * h.sp[f]
	}
	return load
}

// reloadAll recomputes every gate's cached load from scratch: one
// O(E) pass over the positional fanout slab.
func (h *Hier) reloadAll() {
	for p := h.sc.nIn; p < len(h.load); p++ {
		h.load[p] = h.loadAt(p)
	}
}

// reloadDrivers recomputes the cached loads the speed factor at
// position p appears in — its fanin drivers' — from scratch. A driver
// wired through several pins is recomputed once per pin — idempotent.
func (h *Hier) reloadDrivers(p int) {
	for _, f := range h.sc.fanin(p) {
		if int(f) >= h.sc.nIn {
			h.load[f] = h.loadAt(int(f))
		}
	}
}

// saveNode logs the slabs of the node at position p once per trial
// before they are overwritten.
func (h *Hier) saveNode(p int) {
	if h.nodeGen[p] == h.gen {
		return
	}
	h.nodeGen[p] = h.gen
	at := len(h.logTape)
	h.logTape = append(h.logTape, h.tape(p)...)
	h.logNodes = append(h.logNodes, nodeSave{p: int32(p), arr: h.arr[p], gd: h.gd[p], tapeAt: at})
}

// tape returns the fold steps of the node at schedule position p: a
// fixed span of the arena, nil for nodes with fewer than two fanins.
func (h *Hier) tape(p int) []stats.Step {
	k := int(h.sc.finOff[p+1]-h.sc.finOff[p]) - 1
	if k <= 0 {
		return nil
	}
	o := int(h.sc.tape[p])
	return h.tapeArena[o : o+k : o+k]
}

// forward re-runs the forward fold of the gate at schedule position p:
// the flat sweep's gate body fed from the schedule, the tape arena and
// the load cache. Inputs are never dirty; resweep copies theirs.
func (h *Hier) forward(p int) {
	sc := &h.sc
	a, b := sc.finOff[p], sc.finOff[p+1]
	var steps []stats.Step
	if k := int(b-a) - 1; k > 0 {
		o := int(sc.tape[p])
		steps = h.tapeArena[o : o+k : o+k]
	}
	mu := h.m.MuAt(sc.tint[p], h.load[p], h.sp[p])
	t := stats.MV{Mu: mu, Var: h.sig.Var(mu)}
	forwardGate(h.arr, h.gd, int32(p), sc.fin[a:b], sc.poff[a:b], steps, t)
}

// Update re-evaluates the dirty cone in schedule order and returns the
// circuit delay moments. Nodes whose recomputed arrival is
// bit-identical to before stop propagating (early cutoff). The
// resulting state — arrivals, gate delays, tape, Tmax — is
// bit-identical to a fresh taped Analyze at the current sizes. With
// nothing dirty it returns the cached Tmax untouched.
func (h *Hier) Update() stats.MV {
	if h.hiW < h.loW {
		return h.tmax
	}
	dirtyN, frontierN := h.updateCone()
	h.discardPending()
	// The output fold is always rebuilt in the fixed output order, so
	// it matches a fresh sweep's fold bit for bit.
	h.tmax = foldOutputs(h.arr, h.sc.outs, h.outFold)
	h.updates++
	if h.rec != nil {
		h.rec.Event("inc", "update",
			telemetry.I("update", h.updates),
			telemetry.I("dirty", dirtyN),
			telemetry.I("frontier", frontierN),
			telemetry.F("mu", h.tmax.Mu),
			telemetry.F("var", h.tmax.Var),
		)
	}
	return h.tmax
}

// updateCone walks the pending positions in one ascending scan and
// returns the re-evaluated and changed node counts. A changed node's
// fanouts sit at higher levels, hence at higher positions, so the
// bits it sets lie ahead of the scan and each node is evaluated at
// most once, after all of its fanins. A mark ahead of the scan can
// raise hiW but never lower loW, so the scan keeps the span's upper
// end in a local and stores it once at the end. Bits are not cleared
// one by one: the scan only looks ahead, and Update clears the span
// after.
func (h *Hier) updateCone() (dirtyN, frontierN int) {
	arr, pend, fout, foutOff := h.arr, h.pend, h.sc.fout, h.sc.foutOff
	hiW := h.hiW
	for p := h.loW << 6; ; p++ {
		// Advance p to the lowest pending position at or after it.
		w := p >> 6
		if w > hiW {
			break
		}
		if word := pend[w] >> (p & 63); word != 0 {
			p += bits.TrailingZeros64(word)
		} else {
			for w++; w <= hiW && pend[w] == 0; w++ {
			}
			if w > hiW {
				break
			}
			p = w<<6 | bits.TrailingZeros64(pend[w])
		}
		if h.inTrial {
			h.saveNode(p)
		}
		old := arr[p]
		h.forward(p)
		dirtyN++
		if arr[p] == old {
			continue
		}
		frontierN++
		for _, f := range fout[foutOff[p]:foutOff[p+1]] {
			w := int(f) >> 6
			pend[w] |= 1 << (f & 63)
			if w > hiW {
				hiW = w
			}
		}
	}
	h.hiW = hiW
	return dirtyN, frontierN
}

// Resweep unconditionally re-evaluates every node and returns the
// circuit delay moments: the engine's full forward pass. Pending dirty
// marks are subsumed.
func (h *Hier) Resweep() stats.MV {
	if h.inTrial {
		// Log and flush the dirty cone first: the full pass then
		// rewrites every node with the bits it already holds, so the
		// undo log stays complete.
		h.Update()
	}
	h.discardPending()
	h.resweep()
	h.sweepEvent()
	return h.tmax
}

// sweepEvent records one "hier.sweep" event for a full forward pass.
func (h *Hier) sweepEvent() {
	if h.rec != nil {
		h.rec.Event("hier", "sweep",
			telemetry.I("nodes", len(h.arr)),
			telemetry.F("mu", h.tmax.Mu),
			telemetry.F("var", h.tmax.Var),
		)
	}
}

// resweep is Resweep's full forward pass, without the event.
func (h *Hier) resweep() {
	// Positions ascending are levels ascending: the flat sweep's order
	// over dense schedule slabs. The inputs occupy the first nIn.
	copy(h.arr, h.sc.inArr)
	for p := h.sc.nIn; p < len(h.arr); p++ {
		h.forward(p)
	}
	h.tmax = foldOutputs(h.arr, h.sc.outs, h.outFold)
}

// seed unfolds the output max in reverse, exactly like the flat
// sweep's seedAdjoint, into the outputs' adjoint pairs — the values
// the recursion starts from. The slab must be clear.
func (h *Hier) seed(seedMu, seedVar float64) {
	outs := h.sc.outs
	aMu, aVar := seedMu, seedVar
	for i := len(outs) - 1; i >= 1; i-- {
		s := &h.outFold[i-1]
		a := &h.adj[outs[i]]
		a.Mu += aMu*s[1] + aVar*s[4]
		a.Var += aMu*s[2] + aVar*s.DVarB()
		aMu, aVar = aMu*s[0]+aVar*s[3], aMu*s[2]+aVar*s.DVarA()
	}
	a := &h.adj[outs[0]]
	a.Mu += aMu
	a.Var += aVar
}

// backward flushes pending updates and runs one adjoint sweep into
// the positional slab gp: d phi/d S of the gate at each position or,
// on a criticality pass (crit set, seed (1, 0)), each gate's
// mean-delay adjoint, skipping the gradient arithmetic. It is the
// flat canonical recursion in place — levels descending, in-level
// nodes in bucket order, exactly the flat sweep's node order — so it
// is the same float program as Result.Backward, bit-identical by
// construction.
//
// No pass clears a slab. Every gate position is visited once, after
// all of its fanouts: the walk zeroes its adjoint pair as it reads it
// and assigns its gp entry before any of its drivers, which sit at
// lower levels, add their load terms there. The assignment is
// self + 0, the sum the flat sweep forms on a cleared slot, so a -0
// self still reads +0. Only the inputs' adjoint slots, which no walk
// consumes, are cleared at the end, so the slab is all zero between
// passes.
func (h *Hier) backward(seedMu, seedVar float64, crit bool) {
	h.Update()
	h.seed(seedMu, seedVar)
	sc := &h.sc
	m, sig := h.m, h.sig
	adj, gp, gd, load, sp, tape := h.adj, h.gp, h.gd, h.load, h.sp, h.tapeArena
	fin, finOff, fout, foutOff, cin := sc.fin, sc.finOff, sc.fout, sc.foutOff, sc.pinCIn
	// Levels descending, positions inside a level ascending: the flat
	// adjoint's accumulation order (see schedule). Inside a level the
	// fanin, fanout and tape offsets run forward with the position.
	for l := len(sc.lvl) - 2; l >= 1; l-- {
		p, end := int(sc.lvl[l]), int(sc.lvl[l+1])
		a, o, t := int(finOff[p]), int(foutOff[p]), int(sc.tape[p])
		for ; p < end; p++ {
			b, ob := int(finOff[p+1]), int(foutOff[p+1])
			am, av := adj[p].Mu, adj[p].Var
			adj[p] = stats.MV{}
			if am == 0 && av == 0 {
				gp[p] = 0
			} else {
				// The body of Result.backwardNode over the positional
				// slabs: the same float ops in the same order.
				d := am + av*sig.DVar(gd[p].Mu)
				if crit {
					gp[p] = d
				} else {
					self, pin := m.MuGradAt(load[p], sp[p], d)
					gp[p] = self + 0
					c := cin[o:ob]
					for i, f := range fout[o:ob] {
						gp[f] += pin * c[i]
					}
				}
				fanin := fin[a:b]
				uMu, uVar := am, av
				for k := len(fanin) - 1; k >= 1; k-- {
					s := &tape[t+k-1]
					f := &adj[fanin[k]]
					f.Mu += uMu*s[1] + uVar*s[4]
					f.Var += uMu*s[2] + uVar*s.DVarB()
					uMu, uVar = uMu*s[0]+uVar*s[3], uMu*s[2]+uVar*s.DVarA()
				}
				f := &adj[fanin[0]]
				f.Mu += uMu
				f.Var += uVar
			}
			if b-a > 1 {
				t += b - a - 1
			}
			a, o = b, ob
		}
	}
	clear(adj[:sc.nIn])
}

// byID translates the positional slab gp into the NodeID-indexed grad
// slab the NodeID API returns, in one pass in NodeID order: it reads
// gp, which the pass just wrote, through the pos map and writes grad
// forward. No pass writes the inputs' gp entries, so theirs copy zero.
func (h *Hier) byID() []float64 {
	gp, grad := h.gp, h.grad
	for id, p := range h.sc.pos {
		grad[id] = gp[p]
	}
	return grad
}

// Backward flushes pending updates and runs the adjoint sweep with
// the given seed, returning d phi/d S indexed by NodeID. The returned
// slice is engine-owned scratch, overwritten by the next adjoint pass
// — copy it to keep it. Bit-identical to Result.Backward;
// allocation-free in the steady state.
func (h *Hier) Backward(seedMu, seedVar float64) []float64 {
	h.backward(seedMu, seedVar, false)
	return h.byID()
}

// GradMuPlusKSigma flushes pending updates and returns phi =
// mu + k*sigma of the circuit delay plus d phi/d S (engine-owned, see
// Backward) — bit-identical to the package-level GradMuPlusKSigma at
// the engine's current sizes.
func (h *Hier) GradMuPlusKSigma(k float64) (float64, []float64) {
	phi, sMu, sVar := ObjectiveMuPlusKSigma(h.Update(), k)
	return phi, h.Backward(sMu, sVar)
}

// SweepGradMuPlusKSigma is GradMuPlusKSigma with the gradient left in
// sweep order: grad[p] is d phi/d S of the node at position p (see
// SweepOrder), the same floats GradMuPlusKSigma returns by NodeID,
// without the translation pass. For callers that scan every gate per
// pass, such as the greedy sizer's pick. The slice is engine-owned
// scratch, overwritten by the next adjoint pass.
func (h *Hier) SweepGradMuPlusKSigma(k float64) (float64, []float64) {
	phi, sMu, sVar := ObjectiveMuPlusKSigma(h.Update(), k)
	h.backward(sMu, sVar, false)
	return phi, h.gp
}

// SweepOrder returns the NodeID at each sweep position and the first
// gate position: positions [0, gate0) hold the primary inputs, whose
// SweepGradMuPlusKSigma entries are zero. Read-only.
func (h *Hier) SweepOrder() (order []int32, gate0 int) { return h.sc.order, h.sc.nIn }

// SweepSizes returns the engine's current speed factors by sweep
// position, a read-only view. Mutate through SetSize or SetSizes only.
func (h *Hier) SweepSizes() []float64 { return h.sp }

// Criticality flushes pending updates and returns each gate's
// statistical criticality d muTmax / d mu_t, indexed by NodeID — the
// adjoint sweep over the engine's warm tape under a (1, 0) seed,
// bit-identical to the package-level Criticality at the engine's
// current sizes but without the fresh O(V) taped sweep that entry
// point pays. The returned slice is engine-owned scratch, overwritten
// by the next adjoint pass (Backward/GradMuPlusKSigma included) — copy
// it to keep it.
func (h *Hier) Criticality() []float64 {
	h.backward(1, 0, true)
	return h.byID()
}

// Trial opens a what-if scope (pending updates are flushed first so
// the snapshot is consistent). Until Commit or Rollback, every slab
// entry and speed factor is logged before its first overwrite.
// Trials do not nest.
func (h *Hier) Trial() {
	if h.inTrial {
		panic("ssta: Hier.Trial does not nest")
	}
	h.Update()
	h.inTrial = true
	h.gen++
	if h.gen == 0 {
		// The stamps wrapped: a stale stamp could now equal gen and
		// skip a save, so forget them all.
		clear(h.nodeGen)
		clear(h.sGen)
		h.gen = 1
	}
	h.logNodes = h.logNodes[:0]
	h.logTape = h.logTape[:0]
	h.logS = h.logS[:0]
	h.savedTmax = h.tmax
	copy(h.savedOutFold, h.outFold)
}

// Commit accepts the trial's changes and drops the undo log. Dirty
// marks from SetSize calls not yet flushed stay pending for the next
// Update.
func (h *Hier) Commit() {
	if !h.inTrial {
		panic("ssta: Hier.Commit outside a trial")
	}
	h.inTrial = false
}

// Rollback restores the engine — slabs, tape, speed factors, cached
// loads, Tmax — to the state at the matching Trial call, bit for bit,
// and returns the restored circuit moments. Cost is O(nodes touched
// since Trial).
func (h *Hier) Rollback() stats.MV {
	if !h.inTrial {
		panic("ssta: Hier.Rollback outside a trial")
	}
	// Discard pending dirty marks: the restored slabs are consistent,
	// so nothing is left to re-evaluate.
	h.discardPending()
	// Restore in reverse log order; each node was logged once with
	// its pre-trial state, so order only matters for symmetry.
	for i := len(h.logNodes) - 1; i >= 0; i-- {
		sv := h.logNodes[i]
		p := int(sv.p)
		h.arr[p], h.gd[p] = sv.arr, sv.gd
		steps := h.tape(p)
		copy(steps, h.logTape[sv.tapeAt:sv.tapeAt+len(steps)])
	}
	for i := len(h.logS) - 1; i >= 0; i-- {
		sv := h.logS[i]
		h.sp[sv.p], h.s[h.sc.order[sv.p]] = sv.s, sv.s
	}
	// Every size is back, so recomputing the loads SetSize rewrote
	// yields their pre-trial bits: a load is a pure function of the
	// fanout sizes.
	for _, sv := range h.logS {
		h.reloadDrivers(int(sv.p))
	}
	copy(h.outFold, h.savedOutFold)
	h.tmax = h.savedTmax
	h.logNodes = h.logNodes[:0]
	h.logTape = h.logTape[:0]
	h.logS = h.logS[:0]
	h.inTrial = false
	return h.tmax
}

// MemoryBytes estimates the engine's resident footprint: the
// forward/adjoint slabs, the sweep schedule with its model copies, the
// tape arena and the trial log backing arrays. It is the byte cost a
// cache of warm engines pays to keep this one alive (the session
// LRU's budget unit), not an exact accounting of every header.
func (h *Hier) MemoryBytes() int64 {
	const (
		mvSize   = 16 // stats.MV: 2 float64
		stepSize = 48 // stats.Step: 6 float64
	)
	n := int64(len(h.s))
	b := 7 * n * 8      // s, sp, load, gp, grad, adj (2 per node)
	b += 2 * n * mvSize // arr, gd
	b += 2 * n * 4      // nodeGen, sGen
	b += int64(len(h.pend)) * 8
	b += h.sc.memoryBytes()
	b += int64(len(h.tapeArena)) * stepSize
	b += 2 * int64(len(h.outFold)) * stepSize // outFold + savedOutFold
	// Trial undo log backing arrays.
	b += int64(cap(h.logTape)) * stepSize
	b += int64(cap(h.logNodes)) * 48 // nodeSave: position + 2 MV + offset
	b += int64(cap(h.logS)) * 16
	return b
}

// Tmax returns the circuit delay moments as of the last Update.
func (h *Hier) Tmax() stats.MV { return h.tmax }

// Arrival returns node id's arrival moments as of the last Update.
func (h *Hier) Arrival(id netlist.NodeID) stats.MV { return h.arr[h.sc.pos[id]] }

// GateDelay returns gate id's delay moments as of the last Update.
func (h *Hier) GateDelay(id netlist.NodeID) stats.MV { return h.gd[h.sc.pos[id]] }

// Sizes returns the engine's current speed factors as a read-only
// view (indexed by NodeID). Mutate through SetSize or SetSizes only.
func (h *Hier) Sizes() []float64 { return h.s }

// Model returns the engine's delay model. The engine assumes every
// model parameter except the speed factors is frozen for its
// lifetime.
func (h *Hier) Model() *delay.Model { return h.m }
