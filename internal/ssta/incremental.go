package ssta

import (
	"fmt"
	"math"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// This file implements the persistent incremental analysis engine.
// Statistical-timing-driven sizers are dominated by repeated localized
// re-evaluations — one gate's speed factor changes, everything else
// stays put — yet a fresh Analyze pays an allocating O(V) sweep every
// time. Inc keeps the whole forward state (arrivals, gate delays, the
// adjoint tape) alive in arena-backed slabs across evaluations and
// re-runs only the dirty cone:
//
//   - SetSize(g, s) marks dirty exactly the gates whose delay depends
//     on S[g]: g itself and its fanin drivers, whose load term
//     c*sum(C_in*S) contains C_in[g]*S[g] (delay.Model.SDependents).
//   - Update() re-evaluates dirty nodes level by level; a node whose
//     recomputed arrival moments are bit-identical to before does not
//     propagate to its fanout (early cutoff), so the dirty region is
//     the true changed cone, not the full structural cone.
//   - Every recomputation runs the same forwardNode fold in the same
//     order as a fresh sweep, and unchanged nodes hold values a fresh
//     sweep would recompute identically — so the engine state is
//     bit-identical to Analyze/AnalyzeWorkers at the current sizes,
//     for any worker count.
//
// Trial/Commit/Rollback bound what-if moves: Rollback restores every
// overwritten slab entry (and the speed factors) from an undo log, so
// a rejected move costs O(touched) instead of a recompute.

// IncOptions configures an incremental engine.
type IncOptions struct {
	// Workers bounds the parallelism of the level sweeps inside
	// Update and the adjoint pass: <= 0 uses one worker per CPU, 1
	// forces serial execution. Results are bit-identical for every
	// worker count; only the serial path is allocation-free in the
	// steady state (the parallel path spawns goroutines per level).
	Workers int
	// Recorder, when non-nil, receives one "inc.update" event per
	// Update that had work pending, carrying the dirty-node and
	// frontier counts (worker-count-invariant by construction). Nil
	// disables instrumentation at zero cost.
	Recorder telemetry.Recorder
}

// Inc is a persistent incremental SSTA engine. It is not safe for
// concurrent use; one engine serves one evaluation loop.
type Inc struct {
	m       *delay.Model
	workers int
	rec     telemetry.Recorder

	// s is the engine's current speed-factor assignment (owned copy).
	s []float64

	// res holds the forward state. res.gateFold[id] is a fixed
	// subslice of tapeArena, carved once at construction, so
	// re-evaluating a node rewrites its tape slots in place.
	res       Result
	tapeArena []stats.Jac2x4

	// sc is the persistent adjoint scratch behind Backward.
	sc adjointScratch

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

// NewInc builds an engine for the model at the speed-factor
// assignment S (copied) and runs the initial full taped sweep.
func NewInc(m *delay.Model, S []float64, opt IncOptions) *Inc {
	g := m.G
	n := len(g.C.Nodes)
	if len(S) != n {
		panic(fmt.Sprintf("ssta: NewInc got %d sizes for %d nodes", len(S), n))
	}
	inc := &Inc{
		m:       m,
		workers: resolveWorkers(opt.Workers),
		rec:     opt.Recorder,
		s:       append([]float64(nil), S...),
		res: Result{
			Arrival:   make([]stats.MV, n),
			GateDelay: make([]stats.MV, n),
			withTape:  true,
			gateFold:  make([][]stats.Jac2x4, n),
		},
		dirty:   make([]bool, n),
		changed: make([]bool, n),
		byLevel: make([][]netlist.NodeID, len(g.Levels)),
		nodeGen: make([]uint64, n),
		sGen:    make([]uint64, n),
	}
	inc.clearSpan()
	inc.markDirtyFn = inc.markDirty
	// Carve the per-gate tape slots out of one arena so the whole
	// tape is two allocations and re-evaluations are in-place.
	total := 0
	for i := range g.C.Nodes {
		if k := len(g.C.Nodes[i].Fanin); k > 1 {
			total += k - 1
		}
	}
	inc.tapeArena = make([]stats.Jac2x4, total)
	at := 0
	for i := range g.C.Nodes {
		if k := len(g.C.Nodes[i].Fanin); k > 1 {
			inc.res.gateFold[i] = inc.tapeArena[at : at+k-1 : at+k-1]
			at += k - 1
		}
	}
	if no := len(g.C.Outputs); no > 1 {
		inc.res.outFold = make([]stats.Jac2x4, no-1)
		inc.savedOutFold = make([]stats.Jac2x4, no-1)
	}
	// Initial full sweep: the flat forward sweep, writing straight
	// into the pre-carved slabs.
	forwardInto(nil, &inc.res, m, inc.s, true, inc.workers, nil)
	return inc
}

// clearSpan resets the dirty level span to the empty sentinel.
func (inc *Inc) clearSpan() {
	inc.minLvl, inc.maxLvl = len(inc.m.G.Levels), -1
}

// markDirty queues a gate for re-evaluation (idempotent).
func (inc *Inc) markDirty(id netlist.NodeID) {
	if inc.dirty[id] {
		return
	}
	inc.dirty[id] = true
	l := inc.m.G.Level[id]
	inc.byLevel[l] = append(inc.byLevel[l], id)
	if l < inc.minLvl {
		inc.minLvl = l
	}
	if l > inc.maxLvl {
		inc.maxLvl = l
	}
}

// SetSize sets gate id's speed factor and marks the load-dependent
// gates dirty (id and its fanin drivers — the SDependents rule). A
// bit-identical size is a no-op. The change takes effect at the next
// Update.
//
// A non-finite size panics at this API boundary (the checkRiskFactor
// convention): NaN would poison the slabs and, being != to itself,
// could never even no-op out through the bit-compare guard below, so
// it must not reach the engine at all. Callers exposing SetSize to
// untrusted input (the service's PATCH path) validate first.
func (inc *Inc) SetSize(id netlist.NodeID, s float64) {
	if inc.m.G.C.Nodes[id].Kind != netlist.KindGate {
		panic("ssta: Inc.SetSize on a non-gate node")
	}
	if math.IsNaN(s) || math.IsInf(s, 0) {
		panic("ssta: Inc.SetSize requires a finite speed factor, got " + formatFloat(s))
	}
	if inc.s[id] == s {
		return
	}
	if inc.inTrial && inc.sGen[id] != inc.gen {
		inc.sGen[id] = inc.gen
		inc.logS = append(inc.logS, sizeSave{id: id, s: inc.s[id]})
	}
	inc.s[id] = s
	inc.m.SDependents(id, inc.markDirtyFn)
}

// saveNode logs a node's slabs once per trial before they are
// overwritten.
func (inc *Inc) saveNode(id netlist.NodeID) {
	if inc.nodeGen[id] == inc.gen {
		return
	}
	inc.nodeGen[id] = inc.gen
	at := len(inc.logTape)
	inc.logTape = append(inc.logTape, inc.res.gateFold[id]...)
	inc.logNodes = append(inc.logNodes, nodeSave{
		id: id, arr: inc.res.Arrival[id], gd: inc.res.GateDelay[id], tapeAt: at,
	})
}

// Update re-evaluates the dirty cone level by level and returns the
// circuit delay moments. Nodes whose recomputed arrival is
// bit-identical to before stop propagating (early cutoff). The
// resulting state — arrivals, gate delays, tape, Tmax — is
// bit-identical to a fresh taped Analyze/AnalyzeWorkers at the
// current sizes, for any worker count. With nothing dirty it returns
// the cached Tmax untouched.
func (inc *Inc) Update() stats.MV {
	if inc.maxLvl < inc.minLvl {
		return inc.res.Tmax
	}
	g := inc.m.G
	dirtyN, frontierN := 0, 0
	// maxLvl may grow while we scan (changed nodes push fanouts to
	// strictly higher levels), so walk every level from minLvl up and
	// skip the empty buckets.
	for l := inc.minLvl; l < len(inc.byLevel); l++ {
		bucket := inc.byLevel[l]
		if len(bucket) == 0 {
			continue
		}
		if inc.inTrial {
			for _, id := range bucket {
				inc.saveNode(id)
			}
		}
		// Compute phase: each node re-runs the exact forwardNode fold
		// (fanins at lower levels are final), writing only its own
		// slots; the changed flag is a pure bit-compare, so it is
		// identical for every worker count. The serial path stays
		// inline — the runLevel closure escapes into goroutines, and
		// the steady state must not allocate.
		if inc.workers == 1 {
			for _, id := range bucket {
				old := inc.res.Arrival[id]
				forwardNode(&inc.res, inc.m, inc.s, id, true)
				inc.changed[id] = inc.res.Arrival[id] != old
			}
		} else {
			runLevel(inc.workers, len(bucket), func(i int) {
				id := bucket[i]
				old := inc.res.Arrival[id]
				forwardNode(&inc.res, inc.m, inc.s, id, true)
				inc.changed[id] = inc.res.Arrival[id] != old
			})
		}
		// Apply phase: serial, in insertion order — propagate changed
		// arrivals to fanout gates (all at strictly higher levels).
		for _, id := range bucket {
			inc.dirty[id] = false
			if !inc.changed[id] {
				continue
			}
			frontierN++
			for _, f := range g.Fanout[id] {
				inc.markDirty(f)
			}
		}
		dirtyN += len(bucket)
		inc.byLevel[l] = bucket[:0]
	}
	inc.clearSpan()
	// The output fold is always rebuilt in the fixed output order, so
	// it matches a fresh sweep's fold bit for bit.
	foldOutputs(&inc.res, g, true)
	inc.updates++
	if inc.rec != nil {
		inc.rec.Event("inc", "update",
			telemetry.I("update", inc.updates),
			telemetry.I("dirty", dirtyN),
			telemetry.I("frontier", frontierN),
			telemetry.F("mu", inc.res.Tmax.Mu),
			telemetry.F("var", inc.res.Tmax.Var),
		)
	}
	return inc.res.Tmax
}

// Backward flushes pending updates and runs the adjoint sweep over
// the engine's tape with the given seed, returning d phi/d S indexed
// by NodeID. The returned slice is engine-owned scratch, overwritten
// by the next Backward — copy it to keep it. Allocation-free in the
// steady state with Workers == 1.
func (inc *Inc) Backward(seedMu, seedVar float64) []float64 {
	inc.Update()
	return inc.res.backwardInto(nil, inc.m, inc.s, seedMu, seedVar, inc.workers, &inc.sc, nil)
}

// GradMuPlusKSigma flushes pending updates and returns phi =
// mu + k*sigma of the circuit delay plus d phi/d S (engine-owned, see
// Backward) — the incremental equivalent of GradMuPlusKSigmaWorkers,
// bit-identical to it at the engine's current sizes.
func (inc *Inc) GradMuPlusKSigma(k float64) (float64, []float64) {
	tmax := inc.Update()
	phi, sMu, sVar := ObjectiveMuPlusKSigma(tmax, k)
	return phi, inc.Backward(sMu, sVar)
}

// Trial opens a what-if scope (pending updates are flushed first so
// the snapshot is consistent). Until Commit or Rollback, every slab
// entry and speed factor is logged before its first overwrite.
// Trials do not nest.
func (inc *Inc) Trial() {
	if inc.inTrial {
		panic("ssta: Inc.Trial does not nest")
	}
	inc.Update()
	inc.inTrial = true
	inc.gen++
	inc.logNodes = inc.logNodes[:0]
	inc.logTape = inc.logTape[:0]
	inc.logS = inc.logS[:0]
	inc.savedTmax = inc.res.Tmax
	copy(inc.savedOutFold, inc.res.outFold)
}

// Commit accepts the trial's changes and drops the undo log. Dirty
// marks from SetSize calls not yet flushed stay pending for the next
// Update.
func (inc *Inc) Commit() {
	if !inc.inTrial {
		panic("ssta: Inc.Commit outside a trial")
	}
	inc.inTrial = false
}

// Rollback restores the engine — slabs, tape, speed factors, Tmax —
// to the state at the matching Trial call, bit for bit, and returns
// the restored circuit moments. Cost is O(nodes touched since Trial).
func (inc *Inc) Rollback() stats.MV {
	if !inc.inTrial {
		panic("ssta: Inc.Rollback outside a trial")
	}
	// Discard pending dirty marks: the restored slabs are consistent,
	// so nothing is left to re-evaluate.
	for l := inc.minLvl; l < len(inc.byLevel); l++ {
		for _, id := range inc.byLevel[l] {
			inc.dirty[id] = false
		}
		inc.byLevel[l] = inc.byLevel[l][:0]
	}
	inc.clearSpan()
	// Restore in reverse log order; each node was logged once with
	// its pre-trial state, so order only matters for symmetry.
	for i := len(inc.logNodes) - 1; i >= 0; i-- {
		sv := inc.logNodes[i]
		inc.res.Arrival[sv.id] = sv.arr
		inc.res.GateDelay[sv.id] = sv.gd
		steps := inc.res.gateFold[sv.id]
		copy(steps, inc.logTape[sv.tapeAt:sv.tapeAt+len(steps)])
	}
	for i := len(inc.logS) - 1; i >= 0; i-- {
		inc.s[inc.logS[i].id] = inc.logS[i].s
	}
	copy(inc.res.outFold, inc.savedOutFold)
	inc.res.Tmax = inc.savedTmax
	inc.logNodes = inc.logNodes[:0]
	inc.logTape = inc.logTape[:0]
	inc.logS = inc.logS[:0]
	inc.inTrial = false
	return inc.res.Tmax
}

// Criticality flushes pending updates and returns each gate's
// statistical criticality d muTmax / d mu_t — the adjoint sweep over
// the engine's warm tape under a (1, 0) seed, bit-identical to
// CriticalityWorkers at the engine's current sizes but without the
// fresh O(V) taped sweep that entry point pays. The returned slice is
// engine-owned scratch, overwritten by the next adjoint pass
// (Backward/GradMuPlusKSigma included) — copy it to keep it.
func (inc *Inc) Criticality() []float64 {
	inc.Update()
	inc.res.backwardInto(nil, inc.m, inc.s, 1, 0, inc.workers, &inc.sc, nil)
	return inc.sc.dmu
}

// MemoryBytes estimates the engine's resident slab footprint: the
// forward/adjoint slabs, the tape arena and the trial log backing
// arrays. It is the byte cost a cache of warm engines pays to keep
// this one alive (the session LRU's budget unit), not an exact
// accounting of every header.
func (inc *Inc) MemoryBytes() int64 {
	const (
		mvSize  = 16 // stats.MV: 2 float64
		jacSize = 64 // stats.Jac2x4: 2x4 float64
	)
	n := int64(len(inc.s))
	b := n * 8          // s
	b += 2 * n * mvSize // Arrival, GateDelay
	b += 2 * n * 8      // nodeGen, sGen
	b += 2 * n          // dirty, changed
	b += n * 24         // gateFold subslice headers
	b += int64(len(inc.tapeArena)) * jacSize
	b += 2 * int64(len(inc.res.outFold)) * jacSize // outFold + savedOutFold
	for _, bucket := range inc.byLevel {
		b += int64(cap(bucket)) * 8
	}
	// Adjoint scratch (present after the first Backward).
	b += int64(cap(inc.sc.adjMu)+cap(inc.sc.adjVar)+cap(inc.sc.grad)+cap(inc.sc.dmu)) * 8
	b += int64(cap(inc.sc.cMu)+cap(inc.sc.cVar)) * 8
	// Trial undo log backing arrays.
	b += int64(cap(inc.logTape)) * jacSize
	b += int64(cap(inc.logNodes)) * 48 // nodeSave: id + 2 MV + offset
	b += int64(cap(inc.logS)) * 16
	return b
}

// Tmax returns the circuit delay moments as of the last Update.
func (inc *Inc) Tmax() stats.MV { return inc.res.Tmax }

// Arrival returns node id's arrival moments as of the last Update.
func (inc *Inc) Arrival(id netlist.NodeID) stats.MV { return inc.res.Arrival[id] }

// GateDelay returns gate id's delay moments as of the last Update.
func (inc *Inc) GateDelay(id netlist.NodeID) stats.MV { return inc.res.GateDelay[id] }

// Sizes returns the engine's current speed factors as a read-only
// view (indexed by NodeID). Mutate through SetSize only.
func (inc *Inc) Sizes() []float64 { return inc.s }

// Model returns the engine's delay model. The engine assumes every
// model parameter except the speed factors is frozen for its
// lifetime.
func (inc *Inc) Model() *delay.Model { return inc.m }
