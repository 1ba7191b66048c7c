package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// recorder is a traced run's telemetry sink. As a telemetry.Recorder it
// receives what the program's own hooks emit (sizing.Spec.Recorder,
// GreedyOptions.Recorder, IncOptions.Recorder, service.Options.Recorder);
// through begin/end it records the benchmark's spans around each public
// call it makes. A span has an op ID shared by every span of one request
// and a parent. Everything stays in memory until writeJSONL.
//
// A nil *recorder is the untraced run: begin/end do nothing and sink
// returns a nil Recorder, so the program runs uninstrumented.
type recorder struct {
	start time.Time

	mu       sync.Mutex
	nextID   int64
	spans    []spanRecord
	counters map[string]int64
	progSpan map[string]*progSpan
	events   map[eventKey]int64

	// Sums over the events the layer metrics read.
	alm      almTotals
	incDirty float64
}

// almTotals adds up the solver's "alm.done" events.
type almTotals struct {
	converged           int64
	outer, inner, evals float64
}

// spanRecord is one finished benchmark span.
type spanRecord struct {
	Op      int64   `json:"op"`
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// progSpan aggregates the spans the program reports through
// Recorder.Span, which carry a duration but no start.
type progSpan struct {
	n     int64
	total time.Duration
}

type eventKey struct{ scope, name string }

func newRecorder() *recorder {
	return &recorder{
		start:    time.Now(),
		counters: map[string]int64{},
		progSpan: map[string]*progSpan{},
		events:   map[eventKey]int64{},
	}
}

// sink is the Recorder handed to the program: nil when untraced.
func (r *recorder) sink() telemetry.Recorder {
	if r == nil {
		return nil
	}
	return r
}

// Event implements telemetry.Recorder.
func (r *recorder) Event(scope, name string, fields ...telemetry.KV) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[eventKey{scope, name}]++
	switch {
	case scope == "alm" && name == "done":
		for _, f := range fields {
			switch f.Key {
			case "status":
				if f.Val == 0 { // nlp.Converged
					r.alm.converged++
				}
			case "outer":
				r.alm.outer += f.Val
			case "inner":
				r.alm.inner += f.Val
			case "fn_evals":
				r.alm.evals += f.Val
			}
		}
	case scope == "inc" && name == "update":
		for _, f := range fields {
			if f.Key == "dirty" {
				r.incDirty += f.Val
			}
		}
	}
}

// Count implements telemetry.Recorder.
func (r *recorder) Count(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Gauge implements telemetry.Recorder; no layer metric reads a gauge.
func (r *recorder) Gauge(string, float64) {}

// Span implements telemetry.Recorder.
func (r *recorder) Span(name string, d time.Duration) {
	r.mu.Lock()
	s := r.progSpan[name]
	if s == nil {
		s = &progSpan{}
		r.progSpan[name] = s
	}
	s.n++
	s.total += d
	r.mu.Unlock()
}

// spanRef is an open benchmark span.
type spanRef struct {
	op, id, parent int64
	name           string
	start          time.Time
}

// begin opens a span named name under parent; the zero parent starts a
// new op.
func (r *recorder) begin(parent spanRef, name string) spanRef {
	if r == nil {
		return spanRef{}
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	op := parent.op
	if op == 0 {
		op = id
	}
	return spanRef{op: op, id: id, parent: parent.id, name: name, start: time.Now()}
}

// end closes s.
func (r *recorder) end(s spanRef) {
	if r == nil {
		return
	}
	d := time.Since(s.start)
	r.mu.Lock()
	r.spans = append(r.spans, spanRecord{
		Op: s.op, ID: s.id, Parent: s.parent, Name: s.name,
		StartUS: float64(s.start.Sub(r.start).Nanoseconds()) / 1e3,
		DurUS:   float64(d.Nanoseconds()) / 1e3,
	})
	r.mu.Unlock()
}

func (r *recorder) counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

func (r *recorder) spanTotal(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.progSpan[name]; s != nil {
		return s.total
	}
	return 0
}

func (r *recorder) eventCount(scope, name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events[eventKey{scope, name}]
}

func (r *recorder) almDone() almTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alm
}

// dirtyPerUpdate is the mean dirty-node count of the "inc.update" events.
func (r *recorder) dirtyPerUpdate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.incDirty / float64(r.events[eventKey{"inc", "update"}])
}

// writeJSONL writes the benchmark spans in start order, then one line per
// program counter, program span and event kind.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)

	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].StartUS < r.spans[j].StartUS })
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.counters) {
		if err := enc.Encode(map[string]any{"counter": name, "value": r.counters[name]}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.progSpan) {
		s := r.progSpan[name]
		line := map[string]any{"program_span": name, "count": s.n, "total_us": float64(s.total.Nanoseconds()) / 1e3}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	keys := make([]eventKey, 0, len(r.events))
	for k := range r.events {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].scope+"."+keys[i].name < keys[j].scope+"."+keys[j].name
	})
	for _, k := range keys {
		if err := enc.Encode(map[string]any{"event": k.scope + "." + k.name, "count": r.events[k]}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
