package telemetry

import (
	"sync"
	"time"
)

// Watchdog is the solve-health monitor: a Recorder middleware that
// forwards everything to the wrapped sink while tailing the solver's
// progress events — "alm.outer" (merit), "inc.update" and
// "hier.sweep" (mu) — and raising a "solve.stalled"
// event when the tracked figure of merit stops improving for Patience
// consecutive iterations. For "alm.outer" an improvement in the KKT
// residual also counts as progress: near a constrained optimum the
// augmented-Lagrangian merit plateaus by construction (that is
// convergence, not a stall) while the residual keeps dropping, so a
// healthy long solve stays silent; a stuck one improves neither.
// "alm.recover" events count as non-improving iterations outright: a
// recovery means the solver restored the last good iterate instead of
// stepping, so a persistently faulting solve that never reaches an
// outer event still trips the watchdog. The paper's ALM outer loop
// has no intrinsic progress guarantee, so a long-running service
// needs exactly this hook to park or kill jobs that have stopped
// converging.
//
// Determinism: the watchdog's state advances only on Event values,
// which are worker-count-invariant by the module's telemetry
// contract, so the injected solve.stalled events are themselves
// deterministic — traces stay byte-identical for every worker count
// with a watchdog in the chain. Every tracked figure is
// lower-is-better (merit, mu).
//
// One stall event fires per episode: after raising solve.stalled the
// watchdog arms again only once the figure improves.

// Watched-source codes carried in the solve.stalled "src" field.
const (
	StallSrcALM  = 0 // alm.outer merit
	StallSrcInc  = 1 // inc.update mu
	StallSrcHier = 2 // hier.sweep mu
)

// WatchdogOptions tunes stall detection.
type WatchdogOptions struct {
	// MinImprove is the minimum relative improvement per iteration,
	// (best-v)/max(|best|,1), that counts as progress. Default 1e-9.
	MinImprove float64
	// Patience is how many consecutive non-improving iterations raise
	// a stall. Default 16.
	Patience int
	// OnStall, when non-nil, is called (on the emitting goroutine)
	// for every raised stall — the job-health hook for a service.
	OnStall func(Stall)
}

// Stall describes one raised solve.stalled event.
type Stall struct {
	Scope  string  // source scope: "alm", "inc" or "hier"
	Src    int     // StallSrc* code
	Iter   int     // iterations seen on the source when it fired
	Best   float64 // best figure of merit seen
	Last   float64 // figure at the stall
	Streak int     // consecutive non-improving iterations
}

// kktImproveFrac is the new-low margin for the KKT escape hatch: the
// residual must undercut its best by 1% to count as progress. Near a
// plateau the residual wobbles by fractions of a percent around a
// slowly drifting floor; without the margin those noise lows would
// reset the streak forever and a genuinely stuck solve would never
// fire.
const kktImproveFrac = 0.01

// watchState tracks one source's progress.
type watchState struct {
	src       int
	seen      int
	best      float64
	last      float64
	altBest   float64 // best KKT residual (alm only)
	altPrimed bool
	streak    int
	fired     bool
	primed    bool
}

// Watchdog implements Recorder. Create with NewWatchdog.
type Watchdog struct {
	next Recorder
	opt  WatchdogOptions

	mu      sync.Mutex
	sources map[string]*watchState // keyed by scope
	stalls  []Stall
}

// NewWatchdog wraps next with stall detection. A nil next is allowed:
// the watchdog then only accumulates state (Stalls, OnStall) without
// forwarding.
func NewWatchdog(next Recorder, opt WatchdogOptions) *Watchdog {
	if opt.MinImprove <= 0 {
		opt.MinImprove = 1e-9
	}
	if opt.Patience <= 0 {
		opt.Patience = 16
	}
	return &Watchdog{next: next, opt: opt, sources: make(map[string]*watchState)}
}

// Stalls returns a copy of every stall raised so far.
func (w *Watchdog) Stalls() []Stall {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Stall, len(w.stalls))
	copy(out, w.stalls)
	return out
}

// Stalled reports whether any stall has been raised.
func (w *Watchdog) Stalled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.stalls) > 0
}

// SpanTree forwards the TreeProvider capability, so stacks reach a
// wrapped Metrics sink through the watchdog.
func (w *Watchdog) SpanTree() *Tree {
	if tp, ok := w.next.(TreeProvider); ok {
		return tp.SpanTree()
	}
	return nil
}

// Event forwards the event, then advances stall detection when it is
// one of the watched progress events.
func (w *Watchdog) Event(scope, name string, fields ...KV) {
	if w.next != nil {
		w.next.Event(scope, name, fields...)
	}
	var key string
	var src int
	var metric, altMetric string
	switch {
	case scope == "alm" && name == "recover":
		w.tick("alm", StallSrcALM)
		return
	case scope == "alm" && name == "outer":
		key, src, metric, altMetric = "alm", StallSrcALM, "merit", "kkt"
	case scope == "inc" && name == "update":
		key, src, metric = "inc", StallSrcInc, "mu"
	case scope == "hier" && name == "sweep":
		key, src, metric = "hier", StallSrcHier, "mu"
	default:
		return
	}
	var v, alt float64
	found, hasAlt := false, false
	for _, f := range fields {
		if f.Key == metric {
			v, found = f.Val, true
		}
		if altMetric != "" && f.Key == altMetric {
			alt, hasAlt = f.Val, true
		}
	}
	if !found || v != v { // missing or NaN: not evidence either way
		return
	}
	if hasAlt && alt != alt { // NaN residual: no escape hatch
		hasAlt = false
	}
	w.observe(key, src, v, alt, hasAlt)
}

// state returns (creating if needed) the watch state for key. Caller
// holds w.mu.
func (w *Watchdog) state(key string, src int) *watchState {
	st := w.sources[key]
	if st == nil {
		st = &watchState{src: src}
		w.sources[key] = st
	}
	return st
}

// observe advances one source's state with the next figure of merit
// and, for the ALM source, the KKT residual escape hatch.
func (w *Watchdog) observe(key string, src int, v, alt float64, hasAlt bool) {
	w.mu.Lock()
	st := w.state(key, src)
	st.seen++
	if !st.primed {
		st.primed = true
		st.best, st.last = v, v
		if hasAlt {
			st.altBest, st.altPrimed = alt, true
		}
		w.mu.Unlock()
		return
	}
	st.last = v
	denom := st.best
	if denom < 0 {
		denom = -denom
	}
	if denom < 1 {
		denom = 1
	}
	progress := false
	if (st.best-v)/denom >= w.opt.MinImprove {
		st.best = v
		progress = true
	}
	if hasAlt {
		if !st.altPrimed {
			st.altBest, st.altPrimed = alt, true
		} else if st.altBest-alt >= kktImproveFrac*st.altBest {
			st.altBest = alt
			progress = true
		}
	}
	if progress {
		st.streak = 0
		st.fired = false
		w.mu.Unlock()
		return
	}
	st.streak++
	w.maybeFire(st, key)
}

// tick records a non-improving iteration without a figure of merit —
// the recovery path, where the solver restored an iterate instead of
// stepping.
func (w *Watchdog) tick(key string, src int) {
	w.mu.Lock()
	st := w.state(key, src)
	st.seen++
	st.streak++
	w.maybeFire(st, key)
}

// maybeFire raises a stall when the streak reaches Patience. It must
// be entered with w.mu held and always unlocks it; the stall event and
// the OnStall hook run outside the lock (the sink chain may be slow,
// and OnStall is user code).
func (w *Watchdog) maybeFire(st *watchState, key string) {
	if st.fired || st.streak < w.opt.Patience {
		w.mu.Unlock()
		return
	}
	st.fired = true
	stall := Stall{
		Scope: key, Src: st.src, Iter: st.seen,
		Best: st.best, Last: st.last, Streak: st.streak,
	}
	w.stalls = append(w.stalls, stall)
	w.mu.Unlock()

	if w.next != nil {
		w.next.Event("solve", "stalled",
			I("src", stall.Src),
			I("iter", stall.Iter),
			F("best", stall.Best),
			F("last", stall.Last),
			I("streak", stall.Streak),
		)
	}
	if w.opt.OnStall != nil {
		w.opt.OnStall(stall)
	}
}

// Count forwards to the wrapped sink.
func (w *Watchdog) Count(name string, delta int64) {
	if w.next != nil {
		w.next.Count(name, delta)
	}
}

// Gauge forwards to the wrapped sink.
func (w *Watchdog) Gauge(name string, v float64) {
	if w.next != nil {
		w.next.Gauge(name, v)
	}
}

// Span forwards to the wrapped sink.
func (w *Watchdog) Span(name string, d time.Duration) {
	if w.next != nil {
		w.next.Span(name, d)
	}
}
