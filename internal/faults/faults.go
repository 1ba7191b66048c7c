// Package faults is a deterministic fault-injection harness for the
// solver stack's resilience layer. It wraps an nlp.Problem so that
// scripted element callbacks misbehave — returning NaN or Inf,
// poisoning a gradient or Hessian entry, or firing a context
// cancellation — at exact per-element call indices.
//
// Determinism is the whole point: faults are keyed on *per-element*
// call counters, so a script names the exact callback invocation it
// breaks, and the solver evaluates its elements serially in a fixed
// order, so the counters advance identically on every run. Every
// recovery path the resilience layer implements can therefore be
// exercised reproducibly, with bit-identical solver trajectories from
// run to run.
package faults

import (
	"context"
	"math"
	"sync"

	"repro/internal/nlp"
)

// Kind selects what a fault does when it fires.
type Kind int

// Fault kinds.
const (
	// EvalNaN makes the element's Eval return NaN.
	EvalNaN Kind = iota
	// EvalInf makes the element's Eval return +Inf.
	EvalInf
	// GradNaN poisons the first entry of the element's gradient.
	GradNaN
	// HessNaN poisons the (0,0) entry of the element's local Hessian.
	HessNaN
	// Cancel invokes the context.CancelFunc passed to Wrap when the
	// element's Eval is called; the evaluation itself returns the true
	// value, modelling an external kill signal arriving mid-solve.
	Cancel
)

func (k Kind) String() string {
	switch k {
	case EvalNaN:
		return "eval-nan"
	case EvalInf:
		return "eval-inf"
	case GradNaN:
		return "grad-nan"
	case HessNaN:
		return "hess-nan"
	case Cancel:
		return "cancel"
	default:
		return "unknown"
	}
}

// Fault schedules one injection. Elem indexes the problem's elements
// in the engine's order: objective elements first, then
// equality constraints, then inequality constraints. Call is the
// 1-based per-element invocation index of the targeted callback (Eval
// for EvalNaN/EvalInf/Cancel, Grad for GradNaN, Hess for HessNaN) at
// which the fault fires; with Persist set it keeps firing on every
// later call too.
type Fault struct {
	Elem    int
	Call    int
	Kind    Kind
	Persist bool
}

// Firing records one injection that actually happened.
type Firing struct {
	Elem, Call int
	Kind       Kind
}

// Recorder collects the injections that fired. The count and the set
// of firings are deterministic for a deterministic solve; the *order*
// across different elements is not (their callbacks may run
// concurrently), so assertions should compare sets or counts.
type Recorder struct {
	mu    sync.Mutex
	fired []Firing
}

func (r *Recorder) record(f Firing) {
	r.mu.Lock()
	r.fired = append(r.fired, f)
	r.mu.Unlock()
}

// Fired returns a copy of the recorded injections.
func (r *Recorder) Fired() []Firing {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Firing(nil), r.fired...)
}

// Count returns how many injections fired.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fired)
}

// counters tracks one wrapped element's per-callback call counts. The
// solver calls them serially, so plain ints advance identically on
// every run.
type counters struct {
	eval, grad, hess int
}

// hits reports whether fault f (targeting call index `call` of its
// callback) fires now.
func (f *Fault) hits(call int) bool {
	if f.Persist {
		return call >= f.Call
	}
	return call == f.Call
}

// Wrap returns a copy of p whose element callbacks inject the scripted
// faults, plus the Recorder collecting what fired. Cancel faults call
// cancel (which may be nil to make them inert). The wrapped problem
// shares the original element closures but owns its own element
// slices, so the original problem stays clean for reference runs.
func Wrap(p *nlp.Problem, faults []Fault, cancel context.CancelFunc) (*nlp.Problem, *Recorder) {
	rec := &Recorder{}
	q := *p
	q.Objective = append([]nlp.Element(nil), p.Objective...)
	q.EqCons = append([]nlp.Constraint(nil), p.EqCons...)
	q.IneqCons = append([]nlp.Constraint(nil), p.IneqCons...)

	idx := 0
	wrap := func(el *nlp.Element) {
		elem := idx
		idx++
		var mine []Fault
		for _, f := range faults {
			if f.Elem == elem {
				mine = append(mine, f)
			}
		}
		if len(mine) == 0 {
			return
		}
		orig := *el
		cnt := &counters{}
		el.Eval = func(x []float64) float64 {
			cnt.eval++
			v := orig.Eval(x)
			for i := range mine {
				f := &mine[i]
				switch f.Kind {
				case EvalNaN, EvalInf, Cancel:
					if !f.hits(cnt.eval) {
						continue
					}
					rec.record(Firing{Elem: elem, Call: cnt.eval, Kind: f.Kind})
					switch f.Kind {
					case EvalNaN:
						v = math.NaN()
					case EvalInf:
						v = math.Inf(1)
					case Cancel:
						if cancel != nil {
							cancel()
						}
					}
				}
			}
			return v
		}
		el.Grad = func(x []float64, g []float64) {
			cnt.grad++
			orig.Grad(x, g)
			for i := range mine {
				f := &mine[i]
				if f.Kind == GradNaN && f.hits(cnt.grad) {
					rec.record(Firing{Elem: elem, Call: cnt.grad, Kind: f.Kind})
					g[0] = math.NaN()
				}
			}
		}
		if orig.Hess != nil {
			el.Hess = func(x []float64, h [][]float64) {
				cnt.hess++
				orig.Hess(x, h)
				for i := range mine {
					f := &mine[i]
					if f.Kind == HessNaN && f.hits(cnt.hess) {
						rec.record(Firing{Elem: elem, Call: cnt.hess, Kind: f.Kind})
						h[0][0] = math.NaN()
					}
				}
			}
		}
	}

	for i := range q.Objective {
		wrap(&q.Objective[i])
	}
	for i := range q.EqCons {
		wrap(&q.EqCons[i].El)
	}
	for i := range q.IneqCons {
		wrap(&q.IneqCons[i].El)
	}
	return &q, rec
}
