package nlp

import (
	"time"

	"repro/internal/telemetry"
)

// This file implements the partial-separability evaluation engine: the
// LANCELOT trick the rest of the solver stands on. A problem is a sum
// of small element functions, so every expensive whole-problem
// quantity — merit value, merit gradient, element Hessian cache,
// Hessian-vector product — decomposes into per-element computations
// followed by an order-sensitive accumulation. The engine splits those
// two halves explicitly:
//
//   - Compute phase: one serial pass evaluates every element. An
//     element writes only to its own arena slots (its local x/g/v
//     scratch, its flat Hessian block, its value/weight fields).
//   - Fold phase: the solver accumulates the per-element results
//     (merit sum, gradient scatter, H*v scatter) in element order, so
//     every accumulation has one fixed order.
//
// All element scratch lives in a handful of []float64 slabs allocated
// once at engine construction and reused for the life of the solve:
// steady-state merit, gradient, Hessian-cache and Hessian-vector
// evaluation performs zero heap allocations (pinned by
// TestMeritSteadyStateAllocs / TestHessVecSteadyStateAllocs).

// elemKind tags an element's role; the merit fold gives each kind a
// different penalty term and gradient weight.
type elemKind uint8

const (
	elObjective elemKind = iota
	elEquality
	elInequality
)

// engineMode selects what dispatch computes for each element.
type engineMode uint8

const (
	modeEval      engineMode = iota // Eval every element into ref.val
	modeObjEval                     // Eval objective elements only
	modeGrad                        // Grad elements with weight != 0 into slabG
	modeHessCache                   // rebuild the second-order cache at e.x
	modeHessVec                     // per-element H*v contributions into slabHV
	numModes
)

// modeNames label the dispatch modes in telemetry output.
var modeNames = [numModes]string{"merit", "obj", "grad", "hess_cache", "hess_vec"}

// elemRef is the engine's handle on one element: its identity, its
// arena offsets, and the per-call outputs of the compute phase.
type elemRef struct {
	el   *Element
	kind elemKind
	ci   int // index within its constraint class (lamEq / lamIneq)
	n    int // len(el.Vars)
	off  int // offset into the per-variable slabs (slabX, slabG, ...)
	hOff int // offset into slabH, -1 when el.Hess == nil

	// rows aliases the element's flat Hessian block in slabH as the
	// row-major [][]float64 view the Element.Hess contract wants; the
	// headers are allocated once, with the slab, and reused forever.
	rows [][]float64

	// Compute-phase outputs.
	val     float64 // element value (modeEval / modeObjEval)
	w       float64 // merit gradient scatter weight, set by the fold
	hw, gw  float64 // cached Hessian and Gauss-Newton weights
	active  bool    // cache: element contributes to the Hessian
	hasH    bool    // cache: rows hold a fresh local Hessian
	touched bool    // hessVec: the masked local v had a nonzero entry
}

// engine evaluates a Problem's elements over a reusable arena. It is
// owned by one almState and is not safe for concurrent use.
type engine struct {
	st   *almState
	refs []elemRef // objective, then equality, then inequality order
	nObj int

	// Arena slabs, indexed by elemRef.off (per-variable scratch) and
	// elemRef.hOff (flat row-major Hessian blocks). Separate slabs keep
	// the cached second-order data (slabLG, slabH) immune to merit
	// evaluations that happen between buildCache and hessVec calls
	// (the Armijo searches inside a Newton iteration).
	slabX  []float64 // local point gather
	slabG  []float64 // merit local gradients
	slabLG []float64 // cached constraint gradients (rank-one terms)
	slabV  []float64 // hessVec masked local input
	slabHV []float64 // hessVec per-element contributions
	slabH  []float64 // cached local Hessian blocks; see reserveHessians
	sumH   int       // len(slabH) once reserved

	// Compute-phase inputs, set by the caller before each dispatch.
	x    []float64 // evaluation point (modeEval/ObjEval/HessCache)
	v    []float64 // hessVec input vector
	free []bool    // hessVec free-variable mask

	// Telemetry. nDispatch counts dispatches per mode (plain ints,
	// always maintained — an increment is cheaper than a branch worth
	// guarding). modeNS, the wall time per mode, runs only when rec is
	// non-nil. Everything here is metrics data — none of it enters the
	// deterministic event stream.
	rec       telemetry.Recorder
	nDispatch [numModes]int64
	modeNS    [numModes]int64
}

// newEngine builds the element arena for p.
func newEngine(p *Problem, st *almState) *engine {
	nEl := len(p.Objective) + len(p.EqCons) + len(p.IneqCons)
	e := &engine{
		st:   st,
		refs: make([]elemRef, 0, nEl),
		nObj: len(p.Objective),
		rec:  st.rec,
	}
	sumN, sumH := 0, 0
	add := func(el *Element, kind elemKind, ci int) {
		r := elemRef{el: el, kind: kind, ci: ci, n: len(el.Vars), off: sumN, hOff: -1}
		sumN += r.n
		if el.Hess != nil {
			r.hOff = sumH
			sumH += r.n * r.n
		}
		e.refs = append(e.refs, r)
	}
	for i := range p.Objective {
		add(&p.Objective[i], elObjective, i)
	}
	for i := range p.EqCons {
		add(&p.EqCons[i].El, elEquality, i)
	}
	for i := range p.IneqCons {
		add(&p.IneqCons[i].El, elInequality, i)
	}

	e.slabX = make([]float64, sumN)
	e.slabG = make([]float64, sumN)
	e.slabLG = make([]float64, sumN)
	e.slabV = make([]float64, sumN)
	e.slabHV = make([]float64, sumN)
	e.sumH = sumH
	return e
}

// reserveHessians allocates the Hessian slab and its row views once,
// for the Newton solver, the only reader of second-order data. The
// first-order methods never call Element.Hess, and a dense element
// over every variable (LinearElement's zero Hessian) would otherwise
// cost n*n floats that no solve touches.
func (e *engine) reserveHessians() {
	if e.slabH != nil || e.sumH == 0 {
		return
	}
	e.slabH = make([]float64, e.sumH)
	for i := range e.refs {
		r := &e.refs[i]
		if r.hOff < 0 {
			continue
		}
		r.rows = make([][]float64, r.n)
		for j := 0; j < r.n; j++ {
			lo := r.hOff + j*r.n
			r.rows[j] = e.slabH[lo : lo+r.n]
		}
	}
}

// dispatch runs one compute phase over every element: on return all
// per-element outputs are final. Allocation-free, with or without a
// recorder; with one, the only extra hot-path work is the clock reads
// bracketing the phase.
func (e *engine) dispatch(mode engineMode) {
	e.nDispatch[mode]++
	var start time.Time
	if e.rec != nil {
		start = time.Now()
	}
	e.compute(mode)
	if e.rec != nil {
		e.modeNS[mode] += time.Since(start).Nanoseconds()
	}
}

// publish pushes the accumulated evaluation counters and dispatch
// timings into rec; Solve calls it once at the end of a run, so the
// lazy metric-cell creation and name formatting below never touch the
// solver hot path.
func (e *engine) publish(rec telemetry.Recorder) {
	rec.Count("engine.merit_evals", e.nDispatch[modeEval])
	rec.Count("engine.obj_evals", e.nDispatch[modeObjEval])
	rec.Count("engine.grad_evals", e.nDispatch[modeGrad])
	rec.Count("engine.hess_cache_builds", e.nDispatch[modeHessCache])
	rec.Count("engine.hessvec_evals", e.nDispatch[modeHessVec])
	rec.Gauge("engine.elements", float64(len(e.refs)))
	tree := telemetry.TreeOf(rec)
	for m, ns := range e.modeNS {
		if ns > 0 {
			rec.Span("engine.dispatch."+modeNames[m], time.Duration(ns))
			if tree != nil {
				// Publish-time fold into the span tree: the engine
				// aggregates its own per-mode dispatch wall time, so
				// the hot path pays no per-dispatch scope work.
				tree.AddAt(time.Duration(ns), e.nDispatch[m], "nlp.solve", "engine", modeNames[m])
			}
		}
	}
}

// compute executes mode for every element. Every write lands in
// element-owned arena slots or elemRef fields, never in shared
// accumulators — the fold phases own those.
func (e *engine) compute(mode engineMode) {
	switch mode {
	case modeEval, modeObjEval:
		objOnly := mode == modeObjEval
		for i := range e.refs {
			r := &e.refs[i]
			if objOnly && r.kind != elObjective {
				continue
			}
			loc := e.slabX[r.off : r.off+r.n]
			for k, v := range r.el.Vars {
				loc[k] = e.x[v]
			}
			r.val = r.el.Eval(loc)
		}
	case modeGrad:
		// slabX still holds the modeEval gather at the same point; a
		// gradient dispatch always follows a value dispatch.
		for i := range e.refs {
			r := &e.refs[i]
			if r.w == 0 {
				continue
			}
			r.el.Grad(e.slabX[r.off:r.off+r.n], e.slabG[r.off:r.off+r.n])
		}
	case modeHessCache:
		st := e.st
		for i := range e.refs {
			r := &e.refs[i]
			loc := e.slabX[r.off : r.off+r.n]
			for k, v := range r.el.Vars {
				loc[k] = e.x[v]
			}
			switch r.kind {
			case elObjective:
				r.hw, r.gw, r.active = 1, 0, true
			case elEquality:
				c := r.el.Eval(loc)
				r.hw, r.gw, r.active = st.lamEq[r.ci]+st.rho*c, st.rho, true
				r.el.Grad(loc, e.slabLG[r.off:r.off+r.n])
			case elInequality:
				c := r.el.Eval(loc)
				m := st.lamIneq[r.ci] + st.rho*c
				if m <= 0 {
					r.active = false
					continue
				}
				r.hw, r.gw, r.active = m, st.rho, true
				r.el.Grad(loc, e.slabLG[r.off:r.off+r.n])
			}
			r.hasH = r.hw != 0 && r.el.Hess != nil
			if r.hasH {
				// Zero the block first: the Hess contract writes the
				// dense local Hessian, but partial writers historically
				// relied on fresh zeroed storage.
				hb := e.slabH[r.hOff : r.hOff+r.n*r.n]
				for k := range hb {
					hb[k] = 0
				}
				r.el.Hess(loc, r.rows)
			}
		}
	case modeHessVec:
		for i := range e.refs {
			r := &e.refs[i]
			if !r.active {
				continue
			}
			n := r.n
			lv := e.slabV[r.off : r.off+n]
			any := false
			for k, idx := range r.el.Vars {
				val := 0.0
				if e.free[idx] {
					val = e.v[idx]
				}
				lv[k] = val
				if val != 0 {
					any = true
				}
			}
			r.touched = any
			if !any {
				continue
			}
			hv := e.slabHV[r.off : r.off+n]
			if r.hasH {
				hb := e.slabH[r.hOff:]
				for j := 0; j < n; j++ {
					var s float64
					row := hb[j*n : j*n+n]
					for k := 0; k < n; k++ {
						s += row[k] * lv[k]
					}
					hv[j] = r.hw * s
				}
			} else {
				for j := 0; j < n; j++ {
					hv[j] = 0
				}
			}
			if r.gw != 0 {
				lg := e.slabLG[r.off : r.off+n]
				var dot float64
				for k := 0; k < n; k++ {
					dot += lg[k] * lv[k]
				}
				dot *= r.gw
				for k := 0; k < n; k++ {
					hv[k] += dot * lg[k]
				}
			}
		}
	}
}
