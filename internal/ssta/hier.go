package ssta

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/partition"
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
//   - Update() re-evaluates dirty nodes level by level; a node whose
//     recomputed arrival moments are bit-identical to before does not
//     propagate to its fanout (early cutoff), so the dirty region is
//     the true changed cone, not the full structural cone. The unit is
//     the node, not the block: a block-granular rule re-evaluates the
//     whole block around every changed node, which costs more than the
//     O(1) block skip saves on circuits of a few thousand gates.
//   - Every recomputation runs the same forward fold in the same order
//     as a fresh sweep, and unchanged nodes hold values a fresh sweep
//     would recompute identically — so the engine state is
//     bit-identical to Analyze/AnalyzeWorkers at the current sizes,
//     for any worker count and block size.
//
// Trial/Commit/Rollback bound what-if moves: Rollback restores every
// overwritten slab entry, the speed factors and the cached loads from
// an undo log, so a rejected move costs O(touched) instead of a
// recompute.
//
// With Workers > 1 the full passes are scheduled on a
// partition.Partition — the DAG cut into ~cache-sized, level-pure
// blocks (the statistical timing macros of Li et al.'s hierarchical
// SSTA, here only the unit of parallel scheduling):
//
//   - Forward (Resweep): a dataflow scheduler where workers claim
//     whole blocks as their fanin blocks complete. No global level
//     barrier: a deep narrow cone does not stall a wide independent
//     one. Each node's moments are a pure function of its fanins'
//     final moments and every node owns its slots, so any
//     dependency-respecting schedule produces bit-identical arrivals.
//   - Adjoint: the same scheduler on the reversed block DAG. Bitwise
//     determinism needs more care because adjoints *accumulate*
//     across fanout edges; the engine therefore never accumulates
//     concurrently. Every contribution goes to a writer-owned slot
//     (per fanin-pin for arrival adjoints, per fanout-pin plus a
//     self slot for the speed-factor gradient), and each node folds
//     its incoming slots in the exact accumulation order of the
//     serial Backward sweep — consumers ordered by (level desc,
//     level position asc), pins in the serial write order. The fold
//     performs the same additions in the same order as Backward, so
//     the gradient is bit-identical for any worker count and any
//     block size.
//
// A serial engine never reads the partition, the fold orders or the
// per-edge slot slabs, so it does not build them: its full pass is
// the levelized sweep and its adjoint the flat recursion over an
// interleaved slab.
//
// Slab layout: arrivals and gate delays live in NodeID-indexed slabs
// shared with the flat sweeps' code paths, while the adjoint tape is
// one arena carved in block order (level order when serial) — a
// block's tape span is contiguous, so re-evaluating or
// back-propagating a block walks a dense cache-resident range.

// HierOptions configures a persistent engine.
type HierOptions struct {
	// BlockTarget is the aimed-for nodes per block of the parallel
	// schedule; <= 0 uses partition.DefaultBlockTarget. A serial
	// engine cuts no blocks unless Partition is called.
	BlockTarget int
	// Workers bounds the parallelism of Update, Resweep and the
	// adjoint pass: <= 0 uses one worker per CPU, 1 forces serial
	// execution. Results are bit-identical for every worker count;
	// only the serial path is allocation-free in the steady state.
	Workers int
	// Recorder, when non-nil, receives one "inc.update" event per
	// Update that had work pending, carrying the dirty-node and
	// frontier counts, and one "hier.sweep" event per Resweep — all
	// worker-count-invariant by construction. Nil disables
	// instrumentation at zero cost.
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

// Hier is the persistent SSTA engine. It is not safe for concurrent
// use; one engine serves one evaluation loop.
type Hier struct {
	m       *delay.Model
	target  int // HierOptions.BlockTarget, for the partition
	workers int
	rec     telemetry.Recorder

	// s is the engine's current speed-factor assignment (owned copy).
	s []float64

	// res holds the forward state; res.gateFold[id] is a fixed
	// subslice of tapeArena, carved once, so re-evaluating a node
	// rewrites its tape slots in place.
	res       Result
	tapeArena []stats.Jac2x4

	// load caches every gate's capacitive load (delay.Model.Load, a
	// pure function of the fanout speed factors). SetSize recomputes
	// exactly the fanin drivers' entries — the only loads S[id]
	// appears in — so warm sweeps skip the per-gate fanout scan in
	// both the forward delay and the gradient accumulation. Cached
	// values are bitwise what Load would recompute.
	load []float64

	// adj is the interleaved adjoint slab: adj[2id] / adj[2id+1] hold
	// node id's (mu, var) arrival adjoint. The serial sweep
	// accumulates into it directly and a node's pair shares a cache
	// line, halving the lines touched by the scattered fanin
	// accumulation; the parallel path only seeds it (outputs) and
	// reads each node's pair once before folding slots. dmu and grad
	// receive the criticality and the gradient.
	adj, dmu, grad []float64

	// markDirtyFn is the bound markDirty method, created once so the
	// SetSize hot path does not allocate a method value per call.
	markDirtyFn func(netlist.NodeID)

	// Dirty tracking: dirty flags plus per-level pending lists
	// (insertion-ordered, deterministic because all marking happens
	// on the coordinating goroutine), and the dirty level span.
	dirty          []bool
	byLevel        [][]netlist.NodeID
	changed        []bool
	minLvl, maxLvl int

	updates int // Update calls that had work, for the event stream

	// Trial state: a generation-stamped undo log. gen identifies the
	// open trial; nodeGen/sGen record which slabs and sizes were
	// already saved this trial so each is logged at most once.
	inTrial      bool
	gen          uint64
	nodeGen      []uint64
	sGen         []uint64
	logNodes     []nodeSave
	logTape      []stats.Jac2x4
	logS         []sizeSave
	savedOutFold []stats.Jac2x4
	savedTmax    stats.MV

	// p is the block decomposition: built by NewHier when Workers > 1,
	// otherwise on demand by Partition.
	p *partition.Partition

	// Parallel adjoint state, built only when Workers > 1. cMu/cVar
	// are per fanin-pin arrival-adjoint contribution slots (offsets
	// G.FaninOff); gSelf/gPin are the gradient's self and per
	// fanout-pin slots (offsets G.FanoutOff). active[id] records
	// whether gate id's folded adjoint was nonzero this sweep — the
	// serial sweep's skip condition, needed so folds ignore slots of
	// skipped writers exactly like Backward never accumulates them.
	active      []bool
	cMu, cVar   []float64
	gSelf, gPin []float64
	// inAdjSlot/inAdjFrom list, per node (CSR offsets G.FanoutOff —
	// one incoming contribution per fanout pin), the cMu/cVar slot
	// indices and their writer gates in the serial accumulation
	// order. inGrad* is the analogue for gradient pin terms (CSR
	// offsets inGradOff — one entry per gate-driven fanin pin).
	inAdjSlot, inAdjFrom   []int32
	inGradOff              []int
	inGradSlot, inGradFrom []int32

	// pending holds the dataflow scheduler's per-block counters.
	pending []int32
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
// assignment S (copied) and runs the initial full taped sweep. With
// Workers > 1 it also cuts the graph into blocks and builds the
// parallel adjoint's fold orders.
func NewHier(m *delay.Model, S []float64, opt HierOptions) *Hier {
	g := m.G
	n := len(g.C.Nodes)
	if len(S) != n {
		panic(fmt.Sprintf("ssta: NewHier got %d sizes for %d nodes", len(S), n))
	}
	h := &Hier{
		m:       m,
		target:  opt.BlockTarget,
		workers: resolveWorkers(opt.Workers),
		rec:     opt.Recorder,
		s:       append([]float64(nil), S...),
		res: Result{
			Arrival:   make([]stats.MV, n),
			GateDelay: make([]stats.MV, n),
			withTape:  true,
			gateFold:  make([][]stats.Jac2x4, n),
		},
		load:    make([]float64, n),
		adj:     make([]float64, 2*n),
		dmu:     make([]float64, n),
		grad:    make([]float64, n),
		dirty:   make([]bool, n),
		changed: make([]bool, n),
		byLevel: make([][]netlist.NodeID, len(g.Levels)),
		nodeGen: make([]uint64, n),
		sGen:    make([]uint64, n),
	}
	h.clearSpan()
	h.markDirtyFn = h.markDirty
	for i := range g.C.Nodes {
		if g.C.Nodes[i].Kind == netlist.KindGate {
			h.load[i] = m.Load(netlist.NodeID(i), h.s)
		}
	}
	if h.workers > 1 {
		h.buildParallel()
	}

	// Carve the per-gate tape slots from one arena in evaluation
	// order, so the whole tape is two allocations and re-evaluations
	// are in-place.
	total := 0
	for i := range g.C.Nodes {
		if k := len(g.C.Nodes[i].Fanin); k > 1 {
			total += k - 1
		}
	}
	h.tapeArena = make([]stats.Jac2x4, total)
	at := 0
	carve := func(ids []netlist.NodeID) {
		for _, id := range ids {
			if k := len(g.C.Nodes[id].Fanin); k > 1 {
				h.res.gateFold[id] = h.tapeArena[at : at+k-1 : at+k-1]
				at += k - 1
			}
		}
	}
	if h.p != nil {
		for b := range h.p.Blocks {
			carve(h.p.Blocks[b].Nodes)
		}
	} else {
		for _, bucket := range g.Levels {
			carve(bucket)
		}
	}
	if no := len(g.C.Outputs); no > 1 {
		h.res.outFold = make([]stats.Jac2x4, no-1)
		h.savedOutFold = make([]stats.Jac2x4, no-1)
	}
	h.resweep()
	return h
}

// Partition returns the engine's block decomposition, cutting it on
// first use when the engine is serial.
func (h *Hier) Partition() *partition.Partition {
	if h.p == nil {
		h.p = partition.New(h.m.G, partition.Options{BlockTarget: h.target})
	}
	return h.p
}

// buildParallel cuts the blocks and builds the parallel adjoint's
// slot slabs and fold orders. The fold orders list, for every node,
// its incoming adjoint and gradient contribution slots in the exact
// accumulation order of the serial Backward sweep: consumers visited
// by (level desc, level position asc), fanin pins in the serial write
// order (high pin to pin 0), gradient fanout pins ascending. Appending
// while iterating consumers in that global order builds each node's
// list already sorted — one O(E) pass, no per-node sorts.
func (h *Hier) buildParallel() {
	g := h.m.G
	n := len(g.C.Nodes)
	h.pending = make([]int32, len(h.Partition().Blocks))
	h.active = make([]bool, n)
	h.cMu = make([]float64, g.Edges)
	h.cVar = make([]float64, g.Edges)
	h.gSelf = make([]float64, n)
	h.gPin = make([]float64, g.Edges)

	h.inAdjSlot = make([]int32, g.Edges)
	h.inAdjFrom = make([]int32, g.Edges)
	cur := make([]int, n)
	copy(cur, g.FanoutOff[:n])
	for l := len(g.Levels) - 1; l >= 1; l-- {
		for _, v := range g.Levels[l] {
			fanin := g.C.Nodes[v].Fanin
			for k := len(fanin) - 1; k >= 0; k-- {
				f := fanin[k]
				h.inAdjSlot[cur[f]] = int32(g.FaninOff[v] + k)
				h.inAdjFrom[cur[f]] = int32(v)
				cur[f]++
			}
		}
	}

	h.inGradOff = make([]int, n+1)
	for i := range g.C.Nodes {
		cnt := 0
		for _, f := range g.C.Nodes[i].Fanin {
			if g.C.Nodes[f].Kind == netlist.KindGate {
				cnt++
			}
		}
		h.inGradOff[i+1] = h.inGradOff[i] + cnt
	}
	h.inGradSlot = make([]int32, h.inGradOff[n])
	h.inGradFrom = make([]int32, h.inGradOff[n])
	copy(cur, h.inGradOff[:n])
	for l := len(g.Levels) - 1; l >= 1; l-- {
		for _, u := range g.Levels[l] {
			for j, v := range g.Fanout[u] {
				h.inGradSlot[cur[v]] = int32(g.FanoutOff[u] + j)
				h.inGradFrom[cur[v]] = int32(u)
				cur[v]++
			}
		}
	}
}

// clearSpan resets the dirty level span to the empty sentinel.
func (h *Hier) clearSpan() {
	h.minLvl, h.maxLvl = len(h.m.G.Levels), -1
}

// markDirty queues a node for re-evaluation (idempotent).
func (h *Hier) markDirty(id netlist.NodeID) {
	if h.dirty[id] {
		return
	}
	h.dirty[id] = true
	l := h.m.G.Level[id]
	h.byLevel[l] = append(h.byLevel[l], id)
	if l < h.minLvl {
		h.minLvl = l
	}
	if l > h.maxLvl {
		h.maxLvl = l
	}
}

// discardPending drops every pending dirty mark.
func (h *Hier) discardPending() {
	for l := h.minLvl; l <= h.maxLvl; l++ {
		for _, id := range h.byLevel[l] {
			h.dirty[id] = false
		}
		h.byLevel[l] = h.byLevel[l][:0]
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
	h.logTape = append(h.logTape, h.res.gateFold[id]...)
	h.logNodes = append(h.logNodes, nodeSave{
		id: id, arr: h.res.Arrival[id], gd: h.res.GateDelay[id], tapeAt: at,
	})
}

// reeval re-runs node id's forward fold and flags whether its arrival
// changed — a pure bit-compare, identical for every worker count.
func (h *Hier) reeval(id netlist.NodeID) {
	old := h.res.Arrival[id]
	forwardNodeLoaded(&h.res, h.m, h.s, id, true, h.load[id])
	h.changed[id] = h.res.Arrival[id] != old
}

// Update re-evaluates the dirty cone level by level and returns the
// circuit delay moments. Nodes whose recomputed arrival is
// bit-identical to before stop propagating (early cutoff). The
// resulting state — arrivals, gate delays, tape, Tmax — is
// bit-identical to a fresh taped Analyze/AnalyzeWorkers at the
// current sizes, for any worker count and block size. With nothing
// dirty it returns the cached Tmax untouched.
func (h *Hier) Update() stats.MV {
	if h.maxLvl < h.minLvl {
		return h.res.Tmax
	}
	g := h.m.G
	dirtyN, frontierN := 0, 0
	// maxLvl may grow while we scan (changed nodes push fanouts to
	// strictly higher levels), so walk every level from minLvl up and
	// skip the empty buckets.
	for l := h.minLvl; l < len(h.byLevel); l++ {
		bucket := h.byLevel[l]
		if len(bucket) == 0 {
			continue
		}
		if h.inTrial {
			for _, id := range bucket {
				h.saveNode(id)
			}
		}
		// Compute phase: fanins at lower levels are final and each
		// node writes only its own slots. The serial path stays
		// inline — the runLevel closure escapes into goroutines, and
		// the steady state must not allocate.
		if h.workers == 1 {
			for _, id := range bucket {
				h.reeval(id)
			}
		} else {
			runLevel(h.workers, len(bucket), func(i int) { h.reeval(bucket[i]) })
		}
		// Apply phase: serial, in insertion order — propagate changed
		// arrivals to fanout gates (all at strictly higher levels).
		for _, id := range bucket {
			h.dirty[id] = false
			if !h.changed[id] {
				continue
			}
			frontierN++
			for _, f := range g.Fanout[id] {
				h.markDirty(f)
			}
		}
		dirtyN += len(bucket)
		h.byLevel[l] = bucket[:0]
	}
	h.clearSpan()
	// The output fold is always rebuilt in the fixed output order, so
	// it matches a fresh sweep's fold bit for bit.
	foldOutputs(&h.res, g, true)
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

// Resweep unconditionally re-evaluates every node — through the
// dataflow block scheduler when Workers > 1 — and returns the circuit
// delay moments: the full blocked forward pass of the benchmarks.
// Pending dirty marks are subsumed.
func (h *Hier) Resweep() stats.MV {
	if h.inTrial {
		// Log and flush the dirty cone first: the full pass then
		// rewrites every node with the bits it already holds, so the
		// undo log stays complete.
		h.Update()
	}
	h.discardPending()
	h.resweep()
	if h.rec != nil {
		h.rec.Event("hier", "sweep",
			telemetry.I("nodes", len(h.m.G.C.Nodes)),
			telemetry.F("mu", h.res.Tmax.Mu),
			telemetry.F("var", h.res.Tmax.Var),
		)
	}
	return h.res.Tmax
}

// resweep is Resweep's full forward pass, without the event.
func (h *Hier) resweep() {
	if h.workers > 1 {
		h.runBlocks(false, h.evalBlockForward)
	} else {
		for _, bucket := range h.m.G.Levels {
			for _, id := range bucket {
				forwardNodeLoaded(&h.res, h.m, h.s, id, true, h.load[id])
			}
		}
	}
	foldOutputs(&h.res, h.m.G, true)
}

// runBlocks executes eval for every block on a dataflow pool,
// honoring the block DAG: forward order uses fanin-block
// dependencies, backward the reversed DAG. Workers claim blocks as
// their dependencies complete — per-block atomic pending counters, a
// buffered ready queue, no level barriers.
func (h *Hier) runBlocks(backward bool, eval func(int)) {
	blocks := h.p.Blocks
	nb := len(blocks)
	// Per-worker scope stacks attribute each worker's busy time under
	// the shared hier.sweep tree node (wall clock only; never in the
	// event stream, so traces stay worker-count-invariant).
	scope := "hier.block.fwd"
	if backward {
		scope = "hier.block.bwd"
	}
	pending := h.pending
	ready := make(chan int32, nb)
	for b := range blocks {
		deps := len(blocks[b].Fanin)
		if backward {
			deps = len(blocks[b].Fanout)
		}
		pending[b] = int32(deps)
		if deps == 0 {
			ready <- int32(b)
		}
	}
	var done atomic.Int32
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		st := telemetry.StackAt(h.rec, "hier.sweep")
		for b := range ready {
			st.Push(scope)
			eval(int(b))
			st.Pop()
			succs := blocks[b].Fanout
			if backward {
				succs = blocks[b].Fanin
			}
			for _, s := range succs {
				if atomic.AddInt32(&pending[s], -1) == 0 {
					ready <- s
				}
			}
			if int(done.Add(1)) == nb {
				close(ready)
			}
		}
	}
	w := min(h.workers, nb)
	wg.Add(w)
	for i := 1; i < w; i++ {
		go work()
	}
	work()
	wg.Wait()
}

// evalBlockForward re-evaluates every node of block b. Fanins are in
// completed blocks, so their arrivals are final; each node writes
// only its own slots.
func (h *Hier) evalBlockForward(b int) {
	for _, id := range h.p.Blocks[b].Nodes {
		forwardNodeLoaded(&h.res, h.m, h.s, id, true, h.load[id])
	}
}

// evalBlockBackward runs the adjoint step for block b: each node
// folds its incoming contribution slots in the serial accumulation
// order (seed first, then consumers by level desc / position asc,
// pins in write order), then writes its own fanin and gradient
// contribution slots. All writers of a node's slots live in fanout
// blocks, which the reversed schedule completed first.
func (h *Hier) evalBlockBackward(b int) {
	blk := &h.p.Blocks[b]
	if blk.Level == 0 {
		return // primary inputs carry no adjoint work
	}
	g := h.m.G
	inOff := g.FanoutOff
	for _, id := range blk.Nodes {
		am, av := h.adj[2*id], h.adj[2*id+1]
		for t := inOff[id]; t < inOff[id+1]; t++ {
			if !h.active[h.inAdjFrom[t]] {
				continue
			}
			s := h.inAdjSlot[t]
			am += h.cMu[s]
			av += h.cVar[s]
		}
		if am == 0 && av == 0 {
			h.active[id] = false
			h.dmu[id] = 0
			continue
		}
		h.active[id] = true
		d := am + av*h.m.Sigma.DVar(h.res.GateDelay[id].Mu)
		h.dmu[id] = d
		h.m.GateMuGradTermsLoaded(id, h.s, h.load[id], d, &h.gSelf[id], h.gPin[g.FanoutOff[id]:g.FanoutOff[id+1]])
		fanin := g.C.Nodes[id].Fanin
		base := g.FaninOff[id]
		uMu, uVar := am, av
		steps := h.res.gateFold[id]
		for k := len(fanin) - 1; k >= 1; k-- {
			j := steps[k-1]
			h.cMu[base+k] = uMu*j[0][2] + uVar*j[1][2]
			h.cVar[base+k] = uMu*j[0][3] + uVar*j[1][3]
			uMu, uVar = uMu*j[0][0]+uVar*j[1][0], uMu*j[0][1]+uVar*j[1][1]
		}
		h.cMu[base] = uMu
		h.cVar[base] = uVar
	}
}

// seed unfolds the output max in reverse, exactly like the serial
// sweep's seedAdjoint, into the outputs' interleaved adjoint slots —
// the values the block folds (and the serial recursion) start from.
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

// foldGrad gathers every gate's gradient from its self slot and the
// pin-term slots of its fanin drivers, folded in the serial
// accumulation order: the gate's own term first (it is processed
// before its lower-level drivers in the serial sweep), then driver
// terms by (level desc, position asc, fanout pin asc). Slots of
// skipped (zero-adjoint) writers are skipped exactly as the serial
// sweep never accumulates them.
func (h *Hier) foldGrad() {
	g := h.m.G
	for i := range g.C.Nodes {
		if g.C.Nodes[i].Kind != netlist.KindGate {
			continue // inputs carry no gradient; grad stays 0
		}
		acc := 0.0
		if h.active[i] {
			acc += h.gSelf[i]
		}
		for t := h.inGradOff[i]; t < h.inGradOff[i+1]; t++ {
			if !h.active[h.inGradFrom[t]] {
				continue
			}
			acc += h.gPin[h.inGradSlot[t]]
		}
		h.grad[i] = acc
	}
}

// backward flushes pending updates and runs one adjoint sweep. The
// slot-fold machinery exists for deterministic parallel accumulation;
// with one worker the flat canonical recursion runs in place instead
// — levels descending, in-level nodes in bucket order, exactly the
// flat sweep's node order. Accumulating adjoints and gradients
// directly is then the same float program as Result.Backward —
// bit-identical by construction — and skips the slot-write plus fold
// double pass and the O(V+E) gradient gather.
func (h *Hier) backward(seedMu, seedVar float64) {
	h.Update()
	if h.workers > 1 {
		h.seed(seedMu, seedVar)
		h.runBlocks(true, h.evalBlockBackward)
		h.foldGrad()
		return
	}
	clear(h.adj)
	clear(h.grad)
	clear(h.dmu)
	h.seed(seedMu, seedVar)
	g := h.m.G
	adj := h.adj
	for l := len(g.Levels) - 1; l >= 1; l-- {
		for _, id := range g.Levels[l] {
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
			h.m.GateMuGradLoaded(id, h.s, h.load[id], d, h.grad)
			fanin := g.C.Nodes[id].Fanin
			uMu, uVar := am, av
			steps := h.res.gateFold[id]
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
// — copy it to keep it. Bit-identical to Result.Backward/BackwardCtx
// for any worker count and block size; allocation-free in the steady
// state with Workers == 1.
func (h *Hier) Backward(seedMu, seedVar float64) []float64 {
	h.backward(seedMu, seedVar)
	return h.grad
}

// GradMuPlusKSigma flushes pending updates and returns phi =
// mu + k*sigma of the circuit delay plus d phi/d S (engine-owned, see
// Backward) — bit-identical to GradMuPlusKSigmaWorkers at the
// engine's current sizes.
func (h *Hier) GradMuPlusKSigma(k float64) (float64, []float64) {
	phi, sMu, sVar := ObjectiveMuPlusKSigma(h.Update(), k)
	return phi, h.Backward(sMu, sVar)
}

// Criticality flushes pending updates and returns each gate's
// statistical criticality d muTmax / d mu_t — the adjoint sweep over
// the engine's warm tape under a (1, 0) seed, bit-identical to
// CriticalityWorkers at the engine's current sizes but without the
// fresh O(V) taped sweep that entry point pays. The returned slice is
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
		steps := h.res.gateFold[sv.id]
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
// forward/adjoint slabs, the tape arena, the trial log backing
// arrays and, once built, the partition and the parallel slot slabs.
// It is the byte cost a cache of warm engines pays to keep this one
// alive (the session LRU's budget unit), not an exact accounting of
// every header.
func (h *Hier) MemoryBytes() int64 {
	const (
		mvSize    = 16 // stats.MV: 2 float64
		jacSize   = 64 // stats.Jac2x4: 2x4 float64
		hdrSize   = 24 // slice header
		blockSize = 3*hdrSize + 8
	)
	n := int64(len(h.s))
	b := 6 * n * 8      // s, load, dmu, grad, adj (2 per node)
	b += 2 * n * mvSize // Arrival, GateDelay
	b += 2 * n * 8      // nodeGen, sGen
	b += 2 * n          // dirty, changed
	b += n * hdrSize    // gateFold subslice headers
	b += int64(len(h.tapeArena)) * jacSize
	b += 2 * int64(len(h.res.outFold)) * jacSize // outFold + savedOutFold
	for _, bucket := range h.byLevel {
		b += hdrSize + int64(cap(bucket))*8
	}
	// Trial undo log backing arrays.
	b += int64(cap(h.logTape)) * jacSize
	b += int64(cap(h.logNodes)) * 48 // nodeSave: id + 2 MV + offset
	b += int64(cap(h.logS)) * 16
	if p := h.p; p != nil {
		b += int64(len(p.BlockOf))*4 + int64(cap(p.Blocks))*blockSize
		for i := range p.Blocks {
			blk := &p.Blocks[i]
			b += int64(cap(blk.Nodes))*8 + int64(cap(blk.Fanin)+cap(blk.Fanout))*4
		}
	}
	// Parallel adjoint slabs (empty on a serial engine).
	b += int64(len(h.active))
	b += int64(len(h.cMu)+len(h.cVar)+len(h.gSelf)+len(h.gPin)+len(h.inGradOff)) * 8
	b += int64(len(h.inAdjSlot)+len(h.inAdjFrom)+len(h.inGradSlot)+len(h.inGradFrom)+len(h.pending)) * 4
	return b
}

// Tmax returns the circuit delay moments as of the last Update.
func (h *Hier) Tmax() stats.MV { return h.res.Tmax }

// Arrival returns node id's arrival moments as of the last Update.
func (h *Hier) Arrival(id netlist.NodeID) stats.MV { return h.res.Arrival[id] }

// GateDelay returns gate id's delay moments as of the last Update.
func (h *Hier) GateDelay(id netlist.NodeID) stats.MV { return h.res.GateDelay[id] }

// Sizes returns the engine's current speed factors as a read-only
// view (indexed by NodeID). Mutate through SetSize only.
func (h *Hier) Sizes() []float64 { return h.s }

// Model returns the engine's delay model. The engine assumes every
// model parameter except the speed factors is frozen for its
// lifetime.
func (h *Hier) Model() *delay.Model { return h.m }
