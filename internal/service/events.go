package service

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// eventHub fans a job's convergence events out to SSE subscribers.
// Every published event is also kept in an in-order history, so a
// subscriber attaching mid-solve (or after completion) replays the
// full stream before receiving live events — the stream a client sees
// is always the complete, deterministic event sequence.
type eventHub struct {
	mu      sync.Mutex
	history []string
	subs    map[chan string]struct{}
	closed  bool
	lagged  int // subscribers closed for lagging (observability + tests)
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[chan string]struct{})}
}

// publish appends one rendered event and wakes subscribers. Slow
// subscribers never block the solve: a subscriber whose channel is
// full is lagging — dropping the event silently would violate the
// complete-sequence contract, so the laggard is removed and its
// channel closed instead. The client sees its stream end, reconnects,
// and replays the full history (which always has every event).
func (h *eventHub) publish(ev string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.history = append(h.history, ev)
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
			h.lagged++
			delete(h.subs, ch)
			close(ch)
		}
	}
}

// close ends the stream; subscribers' channels are closed after the
// history is final.
func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}

// subscribe returns the history so far plus a live channel (nil when
// the stream already ended — the history is complete).
func (h *eventHub) subscribe() ([]string, chan string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist := append([]string(nil), h.history...)
	if h.closed {
		return hist, nil
	}
	ch := make(chan string, 64)
	h.subs[ch] = struct{}{}
	return hist, ch
}

func (h *eventHub) unsubscribe(ch chan string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}

// streamedScope reports whether a telemetry scope is part of the
// client-facing convergence stream. The high-frequency inner-iteration
// scopes (lbfgs/newton/projgrad) and the engine/sweep spans stay on
// the metrics side; clients get the outer-loop trajectory and the
// job-level state transitions.
func streamedScope(scope string) bool {
	switch scope {
	case "alm", "sizing", "solve", "greedy", "job":
		return true
	}
	return false
}

// jobRecorder is the telemetry.Recorder attached to a job's solve: it
// forwards everything to the server's metrics chain, renders the
// outer-loop events ("alm.outer" and friends) into the job's SSE hub,
// and, once it has let go of both, gives the job's pacer its chance
// to park.
type jobRecorder struct {
	next telemetry.Recorder
	hub  *eventHub
	pace *pacer
}

func (r *jobRecorder) Event(scope, name string, fields ...telemetry.KV) {
	if r.next != nil {
		r.next.Event(scope, name, fields...)
	}
	if streamedScope(scope) {
		r.hub.publish(renderEvent(scope, name, fields))
	}
	r.pace.tick()
}

func (r *jobRecorder) Count(name string, delta int64) {
	if r.next != nil {
		r.next.Count(name, delta)
	}
	r.pace.tick()
}

func (r *jobRecorder) Gauge(name string, v float64) {
	if r.next != nil {
		r.next.Gauge(name, v)
	}
	r.pace.tick()
}

func (r *jobRecorder) Span(name string, d time.Duration) {
	if r.next != nil {
		r.next.Span(name, d)
	}
	r.pace.tick()
}

// renderEvent formats one event as a JSON object with ordered fields,
// matching the trace writer's shortest-round-trip float encoding so
// the SSE stream is as deterministic as the JSONL trace.
func renderEvent(scope, name string, fields []telemetry.KV) string {
	b := make([]byte, 0, 128)
	b = append(b, `{"scope":"`...)
	b = append(b, scope...)
	b = append(b, `","name":"`...)
	b = append(b, name...)
	b = append(b, '"')
	for _, f := range fields {
		b = append(b, ',', '"')
		b = append(b, f.Key...)
		b = append(b, '"', ':')
		b = appendEventFloat(b, f.Val)
	}
	b = append(b, '}')
	return string(b)
}

// appendEventFloat mirrors the telemetry trace float encoding:
// shortest round-trip decimal for finite values, quoted sentinels for
// non-finite ones.
func appendEventFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
