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

// This file implements the hierarchical block-parallel SSTA engine.
// The flat levelized sweeps walk one global topological order: every
// forward/adjoint pass streams the whole arrival/tape arena through
// cache and the per-level barriers serialize unrelated logic cones.
// Hier instead runs on a partition.Partition — the DAG cut into
// ~cache-sized, level-pure blocks — and schedules *blocks*:
//
//   - Forward: a dataflow scheduler where workers claim whole blocks
//     as their fanin blocks complete. No global level barrier: a deep
//     narrow cone does not stall a wide independent one. Each node's
//     moments are a pure function of its fanins' final moments and
//     every node owns its slots, so any dependency-respecting
//     schedule produces bit-identical arrivals — block-topological
//     evaluation with exact boundary arrivals is a pure reordering
//     of the flat sweep's float ops.
//   - Adjoint: the same scheduler on the reversed block DAG. Bitwise
//     determinism needs more care because adjoints *accumulate*
//     across fanout edges; Hier therefore never accumulates
//     concurrently. Every contribution goes to a writer-owned slot
//     (per fanin-pin for arrival adjoints, per fanout-pin plus a
//     self slot for the speed-factor gradient), and each node folds
//     its incoming slots in the exact accumulation order of the
//     serial Backward sweep — consumers ordered by (level desc,
//     level position asc), pins in the serial write order. The fold
//     performs the same additions in the same order as Backward, so
//     the gradient is bit-identical for any worker count and any
//     block size.
//   - Statistical timing macros: the engine is persistent. A block
//     whose member sizes and input boundary arrivals are unchanged
//     since its last evaluation simply keeps its slab contents — the
//     cached macro outputs are replayed by not touching them, an
//     O(1) skip. SetSize dirties exactly the blocks holding the
//     S-dependent gates (delay.Model.SDependents — the same dirty
//     rule as ssta.Inc, lifted to block granularity), and Update
//     re-evaluates dirty blocks level by level with bitwise early
//     cutoff on block boundary outputs: a re-evaluated block whose
//     arrivals come back bit-identical does not dirty its fanout
//     blocks.
//
// Slab layout: arrivals and gate delays live in NodeID-indexed slabs
// shared with the flat sweeps' code paths, while the adjoint tape is
// one arena carved in block order — a block's tape span is
// contiguous, so re-evaluating or back-propagating a block walks a
// dense cache-resident range.

// HierOptions configures a hierarchical engine.
type HierOptions struct {
	// BlockTarget is the aimed-for nodes per block;
	// <= 0 uses partition.DefaultBlockTarget.
	BlockTarget int
	// Workers bounds the dataflow scheduler's parallelism: <= 0 uses
	// one worker per CPU, 1 forces serial execution. Results are
	// bit-identical for every worker count; only the serial path is
	// allocation-free in the steady state.
	Workers int
	// Recorder, when non-nil, receives worker-invariant "hier.block"
	// and "hier.update" events per Update with work pending, and one
	// "hier.sweep" event per full resweep. Nil disables
	// instrumentation at zero cost.
	Recorder telemetry.Recorder
}

// Hier is a persistent hierarchical block-parallel SSTA engine. It is
// not safe for concurrent use; one engine serves one evaluation loop.
type Hier struct {
	m       *delay.Model
	p       *partition.Partition
	workers int
	rec     telemetry.Recorder

	// s is the engine's current speed-factor assignment (owned copy).
	s []float64

	// res holds the forward state; res.gateFold[id] is a fixed
	// subslice of tapeArena, carved once in block order so a block's
	// tape span is contiguous.
	res       Result
	tapeArena []stats.Jac2x4

	// load caches every gate's capacitive load (delay.Model.Load, a
	// pure function of the fanout speed factors). SetSize recomputes
	// exactly the fanin drivers' entries — the only loads S[id]
	// appears in — so warm sweeps skip the per-gate fanout scan in
	// both the forward delay and the gradient accumulation. Cached
	// values are bitwise what Load would recompute.
	load []float64

	// Adjoint state. cMu/cVar are per fanin-pin arrival-adjoint
	// contribution slots (offsets G.FaninOff); gSelf/gPin are the
	// gradient's self and per fanout-pin slots (offsets G.FanoutOff).
	// active[id] records whether gate id's folded adjoint was nonzero
	// this sweep — the serial sweep's skip condition, needed so folds
	// ignore slots of skipped writers exactly like Backward never
	// accumulates them.
	active      []bool
	dmu, grad   []float64
	cMu, cVar   []float64
	gSelf, gPin []float64
	// adj is the interleaved adjoint slab: adj[2id] / adj[2id+1] hold
	// node id's (mu, var) arrival adjoint. The serial sweep
	// accumulates into it directly and a node's pair shares a cache
	// line, halving the lines touched by the scattered fanin
	// accumulation; the parallel path only seeds it (outputs) and
	// reads each node's pair once before folding slots.
	adj []float64
	// inAdjSlot/inAdjFrom list, per node (CSR offsets G.FanoutOff —
	// one incoming contribution per fanout pin), the cMu/cVar slot
	// indices and their writer gates in the serial accumulation
	// order. inGrad* is the analogue for gradient pin terms (CSR
	// offsets inGradOff — one entry per gate-driven fanin pin).
	inAdjSlot, inAdjFrom   []int32
	inGradOff              []int
	inGradSlot, inGradFrom []int32

	// Dataflow scheduler scratch and bound method values (created
	// once so the hot paths do not allocate).
	pending   []int32
	evalFwdFn func(int)
	evalBwdFn func(int)
	markFn    func(netlist.NodeID)

	// Dirty tracking at block granularity: flags plus per-level
	// pending block lists (insertion-ordered, deterministic because
	// all marking happens on the coordinating goroutine), the dirty
	// level span, per-node changed flags and per-block changed
	// counts (written in the compute phase, each block owns its
	// slot).
	dirtyB         []bool
	dirtyByLevel   [][]int32
	minLvl, maxLvl int
	changed        []bool
	blkChanged     []int32
	evalList       []int32

	updates int // Update calls that had work, for the event stream
}

// NewHier partitions the model's graph and builds an engine at the
// speed-factor assignment S (copied), running the initial full taped
// sweep through the dataflow scheduler.
func NewHier(m *delay.Model, S []float64, opt HierOptions) *Hier {
	g := m.G
	n := len(g.C.Nodes)
	if len(S) != n {
		panic(fmt.Sprintf("ssta: NewHier got %d sizes for %d nodes", len(S), n))
	}
	p := partition.New(g, partition.Options{BlockTarget: opt.BlockTarget})
	h := &Hier{
		m:       m,
		p:       p,
		workers: resolveWorkers(opt.Workers),
		rec:     opt.Recorder,
		s:       append([]float64(nil), S...),
		res: Result{
			Arrival:   make([]stats.MV, n),
			GateDelay: make([]stats.MV, n),
			withTape:  true,
			gateFold:  make([][]stats.Jac2x4, n),
		},
		load:         make([]float64, n),
		active:       make([]bool, n),
		dmu:          make([]float64, n),
		grad:         make([]float64, n),
		cMu:          make([]float64, g.Edges),
		cVar:         make([]float64, g.Edges),
		gSelf:        make([]float64, n),
		gPin:         make([]float64, g.Edges),
		adj:          make([]float64, 2*n),
		pending:      make([]int32, len(p.Blocks)),
		dirtyB:       make([]bool, len(p.Blocks)),
		dirtyByLevel: make([][]int32, len(g.Levels)),
		changed:      make([]bool, n),
		blkChanged:   make([]int32, len(p.Blocks)),
	}
	h.clearSpan()
	h.evalFwdFn = h.evalBlockForward
	h.evalBwdFn = h.evalBlockBackward
	h.markFn = func(id netlist.NodeID) { h.markBlock(p.BlockOf[id]) }
	for i := range g.C.Nodes {
		if g.C.Nodes[i].Kind == netlist.KindGate {
			h.load[i] = m.Load(netlist.NodeID(i), h.s)
		}
	}

	// Carve the per-gate tape slots from one arena in block order:
	// a block's tape span is contiguous.
	total := 0
	for i := range g.C.Nodes {
		if k := len(g.C.Nodes[i].Fanin); k > 1 {
			total += k - 1
		}
	}
	h.tapeArena = make([]stats.Jac2x4, total)
	at := 0
	for b := range p.Blocks {
		for _, id := range p.Blocks[b].Nodes {
			if k := len(g.C.Nodes[id].Fanin); k > 1 {
				h.res.gateFold[id] = h.tapeArena[at : at+k-1 : at+k-1]
				at += k - 1
			}
		}
	}
	if no := len(g.C.Outputs); no > 1 {
		h.res.outFold = make([]stats.Jac2x4, no-1)
	}

	h.buildFoldOrders()
	h.Resweep()
	return h
}

// buildFoldOrders precomputes, for every node, its incoming adjoint
// and gradient contribution slots in the exact accumulation order of
// the serial Backward sweep: consumers visited by (level desc, level
// position asc), fanin pins in the serial write order (high pin to
// pin 0), gradient fanout pins ascending. Appending while iterating
// consumers in that global order builds each node's list already
// sorted — one O(E) pass, no per-node sorts.
func (h *Hier) buildFoldOrders() {
	g := h.m.G
	n := len(g.C.Nodes)
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

// markBlock queues a block for re-evaluation (idempotent).
func (h *Hier) markBlock(b int32) {
	if h.dirtyB[b] {
		return
	}
	h.dirtyB[b] = true
	l := h.p.Blocks[b].Level
	h.dirtyByLevel[l] = append(h.dirtyByLevel[l], b)
	if l < h.minLvl {
		h.minLvl = l
	}
	if l > h.maxLvl {
		h.maxLvl = l
	}
}

// SetSize sets gate id's speed factor and invalidates the macros of
// the blocks holding the S-dependent gates (delay.Model.SDependents).
// A bit-identical size is a no-op. The change takes effect at the
// next Update. A non-finite size panics, as in Inc.SetSize: NaN would
// slip past the no-op guard and poison the slabs and the load cache.
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
	h.s[id] = s
	h.m.SDependents(id, h.markFn)
	// S[id] appears in exactly the fanin drivers' load sums; their
	// cached loads are recomputed from scratch (bitwise what Load
	// returns). A driver wired through several pins is recomputed once
	// per pin — idempotent.
	for _, f := range h.m.G.C.Nodes[id].Fanin {
		if h.m.G.C.Nodes[f].Kind == netlist.KindGate {
			h.load[f] = h.m.Load(f, h.s)
		}
	}
}

// runBlocks executes eval for every block, honoring the block DAG:
// forward order uses fanin-block dependencies, backward the reversed
// DAG. With one worker the blocks run inline in (reverse) id order —
// a valid dependency-respecting schedule, allocation-free. With more
// workers a dataflow pool claims blocks as their dependencies
// complete: per-block atomic pending counters, a buffered ready
// queue, no level barriers.
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
	if h.workers <= 1 || nb < 2 {
		st := telemetry.StackAt(h.rec, "hier.sweep")
		if backward {
			for b := nb - 1; b >= 0; b-- {
				st.Push(scope)
				eval(b)
				st.Pop()
			}
		} else {
			for b := 0; b < nb; b++ {
				st.Push(scope)
				eval(b)
				st.Pop()
			}
		}
		return
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
	w := h.workers
	if w > nb {
		w = nb
	}
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

// evalBlockDirty is evalBlockForward plus bitwise change tracking for
// the macro cutoff: changed flags per node and the block's changed
// count in its owned blkChanged slot.
func (h *Hier) evalBlockDirty(b int) {
	blk := &h.p.Blocks[b]
	n := int32(0)
	for _, id := range blk.Nodes {
		old := h.res.Arrival[id]
		forwardNodeLoaded(&h.res, h.m, h.s, id, true, h.load[id])
		ch := h.res.Arrival[id] != old
		h.changed[id] = ch
		if ch {
			n++
		}
	}
	h.blkChanged[b] = n
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

// Resweep unconditionally re-evaluates every block through the
// dataflow scheduler — the initial full sweep, and the full blocked
// forward pass of the benchmarks. Pending dirty marks are subsumed.
func (h *Hier) Resweep() stats.MV {
	for l := h.minLvl; l >= 0 && l < len(h.dirtyByLevel); l++ {
		for _, b := range h.dirtyByLevel[l] {
			h.dirtyB[b] = false
		}
		h.dirtyByLevel[l] = h.dirtyByLevel[l][:0]
	}
	h.clearSpan()
	h.runBlocks(false, h.evalFwdFn)
	foldOutputs(&h.res, h.m.G, true)
	if h.rec != nil {
		h.rec.Event("hier", "sweep",
			telemetry.I("blocks", len(h.p.Blocks)),
			telemetry.I("nodes", len(h.m.G.C.Nodes)),
			telemetry.F("mu", h.res.Tmax.Mu),
			telemetry.F("var", h.res.Tmax.Var),
		)
	}
	return h.res.Tmax
}

// Update re-evaluates the dirty blocks level by level and returns the
// circuit delay moments. A clean block is a statistical timing macro
// replay: its slabs already hold what a fresh sweep would recompute,
// so it is skipped in O(1) by never being queued. A re-evaluated
// block whose arrivals are bit-identical to before does not dirty
// its fanout blocks (early cutoff). The resulting state is
// bit-identical to a fresh taped Analyze/AnalyzeWorkers at the
// current sizes, for any worker count and block size. With nothing
// dirty it returns the cached Tmax untouched.
func (h *Hier) Update() stats.MV {
	if h.maxLvl < h.minLvl {
		return h.res.Tmax
	}
	g := h.m.G
	blocks := h.p.Blocks
	h.evalList = h.evalList[:0]
	sweptGates, changedGates := 0, 0
	// maxLvl may grow while we scan (changed blocks dirty fanout
	// blocks at strictly higher levels), so walk every level from
	// minLvl up and skip the empty buckets.
	for l := h.minLvl; l < len(h.dirtyByLevel); l++ {
		bucket := h.dirtyByLevel[l]
		if len(bucket) == 0 {
			continue
		}
		// Compute phase: level-pure blocks of one level are mutually
		// independent, so they evaluate concurrently; the changed
		// flags are bit-compares, identical for every worker count.
		// The serial path stays inline — the runLevel closure
		// escapes, and the steady state must not allocate.
		if h.workers == 1 {
			for _, b := range bucket {
				h.evalBlockDirty(int(b))
			}
		} else {
			runLevel(h.workers, len(bucket), func(i int) {
				h.evalBlockDirty(int(bucket[i]))
			})
		}
		// Apply phase: serial, in insertion order — changed arrivals
		// invalidate the macros of their fanout gates' blocks, all
		// at strictly higher levels.
		for _, b := range bucket {
			h.dirtyB[b] = false
			blk := &blocks[b]
			sweptGates += len(blk.Nodes)
			changedGates += int(h.blkChanged[b])
			if h.blkChanged[b] > 0 {
				for _, id := range blk.Nodes {
					if !h.changed[id] {
						continue
					}
					for _, f := range g.Fanout[id] {
						h.markBlock(h.p.BlockOf[f])
					}
				}
			}
			h.evalList = append(h.evalList, b)
		}
		h.dirtyByLevel[l] = bucket[:0]
	}
	h.clearSpan()
	// The output fold is rebuilt in the fixed output order, matching
	// a fresh sweep's fold bit for bit.
	foldOutputs(&h.res, g, true)
	h.updates++
	if h.rec != nil {
		// All values are worker-count-invariant: the evaluated list
		// and changed counts come from deterministic marking and
		// bit-compares, emitted in the serial apply order.
		for _, b := range h.evalList {
			h.rec.Event("hier", "block",
				telemetry.I("block", int(b)),
				telemetry.I("gates", len(blocks[b].Nodes)),
				telemetry.I("changed", int(h.blkChanged[b])),
			)
		}
		h.rec.Event("hier", "update",
			telemetry.I("update", h.updates),
			telemetry.I("evaluated", len(h.evalList)),
			telemetry.I("replayed", len(blocks)-len(h.evalList)),
			telemetry.I("gates", sweptGates),
			telemetry.I("changed", changedGates),
			telemetry.F("mu", h.res.Tmax.Mu),
			telemetry.F("var", h.res.Tmax.Var),
		)
	}
	return h.res.Tmax
}

// backward dispatches one adjoint sweep. The slot-fold machinery
// exists for deterministic parallel accumulation; with one worker the
// flat canonical recursion runs in place instead — levels descending,
// in-level nodes in bucket order, which visits the level-pure blocks
// in (level desc, bucket asc) order, exactly the flat sweep's node
// order. Accumulating adjoints and gradients directly is then the
// same float program as Result.Backward — bit-identical by
// construction — and skips the slot-write plus fold double pass and
// the O(V+E) gradient gather.
func (h *Hier) backward(seedMu, seedVar float64) {
	if h.workers <= 1 {
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
				// The body of Result.backwardNodeActive over the
				// interleaved slab: the same float ops in the same
				// order (a node's pair shares a cache line, which is
				// the point of the layout).
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
		return
	}
	h.seed(seedMu, seedVar)
	h.runBlocks(true, h.evalBwdFn)
	h.foldGrad()
}

// Backward flushes pending updates and runs the block-parallel
// adjoint sweep with the given seed, returning d phi/d S indexed by
// NodeID. The returned slice is engine-owned scratch, overwritten by
// the next Backward — copy it to keep it. Bit-identical to
// Result.Backward/BackwardCtx for any worker count and block
// size; allocation-free in the steady state with Workers == 1.
func (h *Hier) Backward(seedMu, seedVar float64) []float64 {
	h.Update()
	h.backward(seedMu, seedVar)
	return h.grad
}

// GradMuPlusKSigma flushes pending updates and returns phi =
// mu + k*sigma of the circuit delay plus d phi/d S (engine-owned, see
// Backward) — bit-identical to GradMuPlusKSigmaWorkers at the
// engine's current sizes.
func (h *Hier) GradMuPlusKSigma(k float64) (float64, []float64) {
	tmax := h.Update()
	phi, sMu, sVar := ObjectiveMuPlusKSigma(tmax, k)
	return phi, h.Backward(sMu, sVar)
}

// Criticality flushes pending updates and returns d muTmax / d
// mu_t(gate) for every gate — the blocked equivalent of
// CriticalityWorkers, bit-identical to it. The returned slice is
// engine-owned scratch, overwritten by the next adjoint pass.
func (h *Hier) Criticality() []float64 {
	h.Update()
	h.backward(1, 0)
	return h.dmu
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

// Partition returns the engine's block decomposition.
func (h *Hier) Partition() *partition.Partition { return h.p }
