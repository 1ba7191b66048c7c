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
// and the adjoint the flat recursion over an interleaved slab, in the
// flat sweeps' own node order, so the gradient is the same float
// program as Result.Backward. Parallel passes measured slower than
// these at every circuit size tried (EXPERIMENTS.md, "Serial
// persistent engine").
//
// Slab layout: arrivals and gate delays live in NodeID-indexed slabs
// shared with the flat sweeps' code paths, while the adjoint tape is
// one arena carved in level order, so a level's tape span is
// contiguous. Every pass reads each node's fanin pins, fanout pins and
// tape offset from the compiled sweep schedule (sched.go), laid out in
// sweep order, instead of the graph's NodeID-ordered per-node slices.

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

	// s is the engine's current speed-factor assignment (owned copy).
	s []float64

	// sc is the compiled sweep schedule every pass walks.
	sc schedule

	// res holds the forward state (its per-node gateFold is unused).
	// The fold steps live in tapeArena at the schedule's fixed
	// offsets, carved once, so re-evaluating a node rewrites its tape
	// slots in place.
	res       Result
	tapeArena []stats.Jac2x4

	// load caches every gate's capacitive load (delay.Model.Load, a
	// pure function of the fanout speed factors). SetSize recomputes
	// exactly the fanin drivers' entries — the only loads S[id]
	// appears in — and SetSizes all of them, so warm sweeps skip the
	// per-gate fanout scan in both the forward delay and the gradient
	// accumulation. Cached values are bitwise what Load would
	// recompute.
	load []float64

	// adj is the interleaved adjoint slab: adj[2id] / adj[2id+1] hold
	// node id's (mu, var) arrival adjoint. The adjoint accumulates
	// into it directly and a node's pair shares a cache line, halving
	// the lines touched by the scattered fanin accumulation. dmu and
	// grad receive the criticality and the gradient.
	adj, dmu, grad []float64

	// markDirtyFn is the bound markDirty method, created once so the
	// SetSize hot path does not allocate a method value per call.
	markDirtyFn func(netlist.NodeID)

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
	logTape      []stats.Jac2x4
	logS         []sizeSave
	savedOutFold []stats.Jac2x4
	savedTmax    stats.MV
}

// nodeSave is one undo-log entry: the node's pre-trial arrival and
// gate delay, plus the offset of its saved tape steps in logTape
// (the count is implied by the node's fanin arity).
type nodeSave struct {
	id      netlist.NodeID
	arr, gd stats.MV
	tapeAt  int
}

// sizeSave is one undo-log entry for a speed factor.
type sizeSave struct {
	id netlist.NodeID
	s  float64
}

// NewHier builds an engine for the model at the speed-factor
// assignment S (copied), compiles its sweep schedule and runs the
// initial full taped sweep.
func NewHier(m *delay.Model, S []float64, opt HierOptions) *Hier {
	g := m.G
	n := len(g.C.Nodes)
	if len(S) != n {
		panic(fmt.Sprintf("ssta: NewHier got %d sizes for %d nodes", len(S), n))
	}
	h := &Hier{
		m:   m,
		rec: opt.Recorder,
		s:   append([]float64(nil), S...),
		res: Result{
			Arrival:   make([]stats.MV, n),
			GateDelay: make([]stats.MV, n),
			withTape:  true,
		},
		sc:      compileSchedule(g),
		load:    make([]float64, n),
		adj:     make([]float64, 2*n),
		dmu:     make([]float64, n),
		grad:    make([]float64, n),
		pend:    make([]uint64, (n+63)/64),
		nodeGen: make([]uint32, n),
		sGen:    make([]uint32, n),
	}
	h.clearSpan()
	h.markDirtyFn = h.markDirty
	h.reloadAll()
	// One arena holds every gate's fold steps, so re-evaluations are
	// in-place.
	h.tapeArena = make([]stats.Jac2x4, h.sc.tapeLen)
	if no := len(g.C.Outputs); no > 1 {
		h.res.outFold = make([]stats.Jac2x4, no-1)
		h.savedOutFold = make([]stats.Jac2x4, no-1)
	}
	h.resweep()
	return h
}

// clearSpan resets the pending word span to the empty sentinel.
func (h *Hier) clearSpan() {
	h.loW, h.hiW = len(h.pend), -1
}

// markDirty queues a node for re-evaluation (idempotent).
func (h *Hier) markDirty(id netlist.NodeID) {
	p := h.sc.pos[id]
	w := int(p >> 6)
	h.pend[w] |= 1 << (p & 63)
	if w < h.loW {
		h.loW = w
	}
	if w > h.hiW {
		h.hiW = w
	}
}

// nextDirty returns the lowest pending position at or after p, or -1.
func (h *Hier) nextDirty(p int) int {
	w := p >> 6
	if w > h.hiW {
		return -1
	}
	if word := h.pend[w] >> (p & 63); word != 0 {
		return p + bits.TrailingZeros64(word)
	}
	for w++; w <= h.hiW; w++ {
		if word := h.pend[w]; word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}

// discardPending drops every pending dirty mark.
func (h *Hier) discardPending() {
	if h.hiW >= h.loW {
		clear(h.pend[h.loW : h.hiW+1])
	}
	h.clearSpan()
}

// SetSize sets gate id's speed factor, marks the load-dependent gates
// dirty (id and its fanin drivers — the SDependents rule) and
// recomputes the drivers' cached loads. A bit-identical size is a
// no-op. The change takes effect at the next Update.
//
// A non-finite size panics at this API boundary (the checkRiskFactor
// convention): NaN would poison the slabs and the load cache and,
// being != to itself, could never even no-op out through the
// bit-compare guard below, so it must not reach the engine at all.
// Callers exposing SetSize to untrusted input (the service's PATCH
// path) validate first.
func (h *Hier) SetSize(id netlist.NodeID, s float64) {
	nodes := h.m.G.C.Nodes
	if nodes[id].Kind != netlist.KindGate {
		panic("ssta: Hier.SetSize on a non-gate node")
	}
	if math.IsNaN(s) || math.IsInf(s, 0) {
		panic("ssta: Hier.SetSize requires a finite speed factor, got " + formatFloat(s))
	}
	if h.s[id] == s {
		return
	}
	if h.inTrial && h.sGen[id] != h.gen {
		h.sGen[id] = h.gen
		h.logS = append(h.logS, sizeSave{id: id, s: h.s[id]})
	}
	h.s[id] = s
	h.m.SDependents(id, h.markDirtyFn)
	h.reloadDrivers(id)
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
			h.s[id] = x[i]
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

// reloadAll recomputes every gate's cached load from scratch (bitwise
// what Load returns): one O(E) pass over the fanout lists.
func (h *Hier) reloadAll() {
	nodes := h.m.G.C.Nodes
	for i := range nodes {
		if nodes[i].Kind == netlist.KindGate {
			h.load[i] = h.m.Load(netlist.NodeID(i), h.s)
		}
	}
}

// reloadDrivers recomputes the cached loads S[id] appears in — its
// fanin drivers' — from scratch (bitwise what Load returns). A driver
// wired through several pins is recomputed once per pin — idempotent.
func (h *Hier) reloadDrivers(id netlist.NodeID) {
	nodes := h.m.G.C.Nodes
	for _, f := range nodes[id].Fanin {
		if nodes[f].Kind == netlist.KindGate {
			h.load[f] = h.m.Load(f, h.s)
		}
	}
}

// saveNode logs a node's slabs once per trial before they are
// overwritten.
func (h *Hier) saveNode(id netlist.NodeID) {
	if h.nodeGen[id] == h.gen {
		return
	}
	h.nodeGen[id] = h.gen
	at := len(h.logTape)
	h.logTape = append(h.logTape, h.tape(int(h.sc.pos[id]))...)
	h.logNodes = append(h.logNodes, nodeSave{
		id: id, arr: h.res.Arrival[id], gd: h.res.GateDelay[id], tapeAt: at,
	})
}

// tape returns the fold steps of the node at schedule position p: a
// fixed span of the arena, nil for nodes with fewer than two fanins.
func (h *Hier) tape(p int) []stats.Jac2x4 {
	k := int(h.sc.finOff[p+1]-h.sc.finOff[p]) - 1
	if k <= 0 {
		return nil
	}
	o := int(h.sc.tape[p])
	return h.tapeArena[o : o+k : o+k]
}

// forward re-runs the forward fold of the node at schedule position
// p: the flat sweep's gate body fed from the schedule, the tape arena
// and the load cache.
func (h *Hier) forward(p int) {
	id := h.sc.node(p)
	fanin := h.sc.fanin(p)
	if len(fanin) == 0 { // a primary input
		h.res.Arrival[id] = h.m.Arrival[id]
		return
	}
	forwardGate(&h.res, h.m, id, fanin, h.tape(p), h.m.GateMVLoaded(id, h.s, h.load[id]))
}

// Update re-evaluates the dirty cone in schedule order and returns the
// circuit delay moments. Nodes whose recomputed arrival is
// bit-identical to before stop propagating (early cutoff). The
// resulting state — arrivals, gate delays, tape, Tmax — is
// bit-identical to a fresh taped Analyze at the current sizes. With
// nothing dirty it returns the cached Tmax untouched.
func (h *Hier) Update() stats.MV {
	if h.hiW < h.loW {
		return h.res.Tmax
	}
	dirtyN, frontierN := h.updateCone()
	h.discardPending()
	// The output fold is always rebuilt in the fixed output order, so
	// it matches a fresh sweep's fold bit for bit.
	foldOutputs(&h.res, h.m.G, true)
	h.updates++
	if h.rec != nil {
		h.rec.Event("inc", "update",
			telemetry.I("update", h.updates),
			telemetry.I("dirty", dirtyN),
			telemetry.I("frontier", frontierN),
			telemetry.F("mu", h.res.Tmax.Mu),
			telemetry.F("var", h.res.Tmax.Var),
		)
	}
	return h.res.Tmax
}

// updateCone walks the pending positions in one ascending scan and
// returns the re-evaluated and changed node counts. A changed node's
// fanouts sit at higher levels, hence at higher positions, so the
// bits it sets lie ahead of the scan and each node is evaluated at
// most once, after all of its fanins. Bits are not cleared one by
// one: nextDirty only looks ahead, and Update clears the span after.
func (h *Hier) updateCone() (dirtyN, frontierN int) {
	sc := &h.sc
	arr := h.res.Arrival
	for p := h.nextDirty(h.loW << 6); p >= 0; p = h.nextDirty(p + 1) {
		id := sc.node(p)
		if h.inTrial {
			h.saveNode(id)
		}
		old := arr[id]
		h.forward(p)
		dirtyN++
		if arr[id] == old {
			continue
		}
		frontierN++
		for _, f := range sc.fanout(p) {
			h.markDirty(f)
		}
	}
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
	return h.res.Tmax
}

// sweepEvent records one "hier.sweep" event for a full forward pass.
func (h *Hier) sweepEvent() {
	if h.rec != nil {
		h.rec.Event("hier", "sweep",
			telemetry.I("nodes", len(h.m.G.C.Nodes)),
			telemetry.F("mu", h.res.Tmax.Mu),
			telemetry.F("var", h.res.Tmax.Var),
		)
	}
}

// resweep is Resweep's full forward pass, without the event.
func (h *Hier) resweep() {
	// Positions ascending are levels ascending: the flat sweep's order
	// over dense schedule slabs.
	for p := range h.sc.order {
		h.forward(p)
	}
	foldOutputs(&h.res, h.m.G, true)
}

// seed unfolds the output max in reverse, exactly like the flat
// sweep's seedAdjoint, into the outputs' interleaved adjoint slots —
// the values the recursion starts from.
func (h *Hier) seed(seedMu, seedVar float64) {
	outs := h.m.G.C.Outputs
	for _, o := range outs {
		h.adj[2*o], h.adj[2*o+1] = 0, 0
	}
	aMu, aVar := seedMu, seedVar
	for i := len(outs) - 1; i >= 1; i-- {
		j := h.res.outFold[i-1]
		o := outs[i]
		h.adj[2*o] += aMu*j[0][2] + aVar*j[1][2]
		h.adj[2*o+1] += aMu*j[0][3] + aVar*j[1][3]
		aMu, aVar = aMu*j[0][0]+aVar*j[1][0], aMu*j[0][1]+aVar*j[1][1]
	}
	h.adj[2*outs[0]] += aMu
	h.adj[2*outs[0]+1] += aVar
}

// backward flushes pending updates and runs one adjoint sweep: the
// flat canonical recursion in place — levels descending, in-level
// nodes in bucket order, exactly the flat sweep's node order — so it
// is the same float program as Result.Backward, bit-identical by
// construction.
func (h *Hier) backward(seedMu, seedVar float64) {
	h.Update()
	clear(h.adj)
	clear(h.grad)
	clear(h.dmu)
	h.seed(seedMu, seedVar)
	sc := &h.sc
	adj := h.adj
	// Levels descending, positions inside a level ascending: the flat
	// adjoint's accumulation order (see schedule).
	for l := len(sc.lvl) - 2; l >= 1; l-- {
		for p := int(sc.lvl[l]); p < int(sc.lvl[l+1]); p++ {
			id := sc.node(p)
			am, av := adj[2*id], adj[2*id+1]
			if am == 0 && av == 0 {
				continue
			}
			// The body of Result.backwardNode over the interleaved
			// slab: the same float ops in the same order (a node's
			// pair shares a cache line, which is the point of the
			// layout).
			d := am + av*h.m.Sigma.DVar(h.res.GateDelay[id].Mu)
			h.dmu[id] = d
			h.m.GateMuGradLoaded(id, h.s, h.load[id], d, sc.fanout(p), h.grad)
			fanin := sc.fanin(p)
			uMu, uVar := am, av
			steps := h.tape(p)
			for k := len(fanin) - 1; k >= 1; k-- {
				j := steps[k-1]
				f := fanin[k]
				adj[2*f] += uMu*j[0][2] + uVar*j[1][2]
				adj[2*f+1] += uMu*j[0][3] + uVar*j[1][3]
				uMu, uVar = uMu*j[0][0]+uVar*j[1][0], uMu*j[0][1]+uVar*j[1][1]
			}
			adj[2*fanin[0]] += uMu
			adj[2*fanin[0]+1] += uVar
		}
	}
}

// Backward flushes pending updates and runs the adjoint sweep with
// the given seed, returning d phi/d S indexed by NodeID. The returned
// slice is engine-owned scratch, overwritten by the next adjoint pass
// — copy it to keep it. Bit-identical to Result.Backward;
// allocation-free in the steady state.
func (h *Hier) Backward(seedMu, seedVar float64) []float64 {
	h.backward(seedMu, seedVar)
	return h.grad
}

// GradMuPlusKSigma flushes pending updates and returns phi =
// mu + k*sigma of the circuit delay plus d phi/d S (engine-owned, see
// Backward) — bit-identical to the package-level GradMuPlusKSigma at
// the engine's current sizes.
func (h *Hier) GradMuPlusKSigma(k float64) (float64, []float64) {
	phi, sMu, sVar := ObjectiveMuPlusKSigma(h.Update(), k)
	return phi, h.Backward(sMu, sVar)
}

// Criticality flushes pending updates and returns each gate's
// statistical criticality d muTmax / d mu_t — the adjoint sweep over
// the engine's warm tape under a (1, 0) seed, bit-identical to the
// package-level Criticality at the engine's current sizes but without
// the fresh O(V) taped sweep that entry point pays. The returned slice is
// engine-owned scratch, overwritten by the next adjoint pass
// (Backward/GradMuPlusKSigma included) — copy it to keep it.
func (h *Hier) Criticality() []float64 {
	h.backward(1, 0)
	return h.dmu
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
	h.savedTmax = h.res.Tmax
	copy(h.savedOutFold, h.res.outFold)
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
		h.res.Arrival[sv.id] = sv.arr
		h.res.GateDelay[sv.id] = sv.gd
		steps := h.tape(int(h.sc.pos[sv.id]))
		copy(steps, h.logTape[sv.tapeAt:sv.tapeAt+len(steps)])
	}
	for i := len(h.logS) - 1; i >= 0; i-- {
		h.s[h.logS[i].id] = h.logS[i].s
	}
	// Every size is back, so recomputing the loads SetSize rewrote
	// yields their pre-trial bits: a load is a pure function of the
	// fanout sizes.
	for _, sv := range h.logS {
		h.reloadDrivers(sv.id)
	}
	copy(h.res.outFold, h.savedOutFold)
	h.res.Tmax = h.savedTmax
	h.logNodes = h.logNodes[:0]
	h.logTape = h.logTape[:0]
	h.logS = h.logS[:0]
	h.inTrial = false
	return h.res.Tmax
}

// MemoryBytes estimates the engine's resident footprint: the
// forward/adjoint slabs, the sweep schedule, the tape arena and the
// trial log backing arrays. It is the byte cost a cache of warm engines pays to keep this one
// alive (the session LRU's budget unit), not an exact accounting of
// every header.
func (h *Hier) MemoryBytes() int64 {
	const (
		mvSize  = 16 // stats.MV: 2 float64
		jacSize = 64 // stats.Jac2x4: 2x4 float64
	)
	n := int64(len(h.s))
	b := 6 * n * 8      // s, load, dmu, grad, adj (2 per node)
	b += 2 * n * mvSize // Arrival, GateDelay
	b += 2 * n * 4      // nodeGen, sGen
	b += int64(len(h.pend)) * 8
	b += h.sc.memoryBytes()
	b += int64(len(h.tapeArena)) * jacSize
	b += 2 * int64(len(h.res.outFold)) * jacSize // outFold + savedOutFold
	// Trial undo log backing arrays.
	b += int64(cap(h.logTape)) * jacSize
	b += int64(cap(h.logNodes)) * 48 // nodeSave: id + 2 MV + offset
	b += int64(cap(h.logS)) * 16
	return b
}

// Tmax returns the circuit delay moments as of the last Update.
func (h *Hier) Tmax() stats.MV { return h.res.Tmax }

// Arrival returns node id's arrival moments as of the last Update.
func (h *Hier) Arrival(id netlist.NodeID) stats.MV { return h.res.Arrival[id] }

// GateDelay returns gate id's delay moments as of the last Update.
func (h *Hier) GateDelay(id netlist.NodeID) stats.MV { return h.res.GateDelay[id] }

// Sizes returns the engine's current speed factors as a read-only
// view (indexed by NodeID). Mutate through SetSize or SetSizes only.
func (h *Hier) Sizes() []float64 { return h.s }

// Model returns the engine's delay model. The engine assumes every
// model parameter except the speed factors is frozen for its
// lifetime.
func (h *Hier) Model() *delay.Model { return h.m }
