package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics is the aggregate sink: counters, gauges and span timers
// stored in expvar cells (atomic, cheap to bump from worker
// goroutines), with an HDR-style latency histogram per span name and
// a hierarchical span tree (see spantree.go) for phase attribution.
// Events are not stored individually — each one bumps the counter
// "event.<scope>.<event>", which makes the summary table a compact
// census of the trace stream.
//
// A Metrics value implements expvar.Var; Publish exposes it in the
// process-wide expvar namespace so the -pprof debug server serves the
// live snapshot at /debug/vars. WriteProm (prom.go) renders the same
// snapshot in Prometheus text exposition format.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*expvar.Int
	gauges   map[string]*expvar.Float
	spans    map[string]*spanVar
	tree     *Tree
}

// spanVar aggregates one span name: invocation count, total
// nanoseconds, and the latency histogram behind the quantile columns.
type spanVar struct {
	n  expvar.Int
	ns expvar.Int
	h  Histogram
}

// record folds one completed duration into the cell.
func (s *spanVar) record(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(d.Nanoseconds())
	s.h.Record(d)
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	m := &Metrics{
		counters: make(map[string]*expvar.Int),
		gauges:   make(map[string]*expvar.Float),
		spans:    make(map[string]*spanVar),
	}
	m.tree = NewTree()
	m.tree.m = m
	return m
}

// SpanTree returns the sink's span tree (the TreeProvider capability
// NewStack discovers).
func (m *Metrics) SpanTree() *Tree { return m.tree }

func (m *Metrics) counter(name string) *expvar.Int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = new(expvar.Int)
		m.counters[name] = c
	}
	return c
}

// span returns the named span cell, creating it on first use.
func (m *Metrics) span(name string) *spanVar {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.spans[name]
	if s == nil {
		s = new(spanVar)
		m.spans[name] = s
	}
	return s
}

// Event bumps the per-kind event counter.
func (m *Metrics) Event(scope, name string, fields ...KV) {
	m.counter("event." + scope + "." + name).Add(1)
}

// Count adds delta to the named counter.
func (m *Metrics) Count(name string, delta int64) {
	m.counter(name).Add(delta)
}

// Gauge sets the named gauge.
func (m *Metrics) Gauge(name string, v float64) {
	m.mu.Lock()
	g := m.gauges[name]
	if g == nil {
		g = new(expvar.Float)
		m.gauges[name] = g
	}
	m.mu.Unlock()
	g.Set(v)
}

// Span folds one completed phase into the per-name timer and its
// latency histogram.
func (m *Metrics) Span(name string, d time.Duration) {
	m.span(name).record(d)
}

// CounterValue returns the named counter's current value.
func (m *Metrics) CounterValue(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.counters[name]; c != nil {
		return c.Value()
	}
	return 0
}

// GaugeValue returns the named gauge's current value.
func (m *Metrics) GaugeValue(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if g := m.gauges[name]; g != nil {
		return g.Value()
	}
	return 0
}

// SpanValue returns the named span's invocation count and total time.
func (m *Metrics) SpanValue(name string) (count int64, total time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.spans[name]; s != nil {
		return s.n.Value(), time.Duration(s.ns.Value())
	}
	return 0, 0
}

// String renders the snapshot as a JSON object, satisfying
// expvar.Var. Spans carry their histogram quantiles alongside the
// count/total pair. Keys render in sorted order within each kind, so
// the output is stable for a fixed snapshot.
func (m *Metrics) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	b.WriteByte('{')
	sep := ""
	for _, name := range sortedKeys(m.counters) {
		fmt.Fprintf(&b, "%s%q:%s", sep, name, m.counters[name].String())
		sep = ","
	}
	for _, name := range sortedKeys(m.gauges) {
		fmt.Fprintf(&b, "%s%q:%s", sep, name, m.gauges[name].String())
		sep = ","
	}
	for _, name := range sortedKeys(m.spans) {
		s := m.spans[name]
		fmt.Fprintf(&b, "%s%q:{\"count\":%s,\"ns\":%s,\"p50_ns\":%d,\"p90_ns\":%d,\"p99_ns\":%d,\"max_ns\":%d}",
			sep, name, s.n.String(), s.ns.String(),
			s.h.Quantile(0.50).Nanoseconds(), s.h.Quantile(0.90).Nanoseconds(),
			s.h.Quantile(0.99).Nanoseconds(), s.h.Max().Nanoseconds())
		sep = ","
	}
	b.WriteByte('}')
	return b.String()
}

// Publish registers the snapshot under name in the process-wide expvar
// namespace (and thus at the debug server's /debug/vars). Publishing
// the same name twice panics, per expvar's contract; CLIs publish
// exactly once.
func (m *Metrics) Publish(name string) {
	expvar.Publish(name, m)
}

// durUnit is one rendering unit of the summary's duration columns.
type durUnit struct {
	div  float64
	name string
}

var durUnits = []durUnit{
	{1, "ns"},
	{1e3, "µs"},
	{1e6, "ms"},
	{1e9, "s"},
}

// pickUnit chooses the unit that renders max below 10000, so a column
// formatted with one shared unit never mixes µs and ms rows.
func pickUnit(max time.Duration) durUnit {
	u := durUnits[0]
	for _, cand := range durUnits[1:] {
		if float64(max) < cand.div*10 {
			break
		}
		u = cand
	}
	return u
}

// fmtDur renders d in unit u with three decimals ("1.461ms").
func fmtDur(d time.Duration, u durUnit) string {
	return fmt.Sprintf("%.3f%s", float64(d)/u.div, u.name)
}

// spanRow is one span line of the summary, pre-extracted under the
// lock so the quantile walks happen once.
type spanRow struct {
	name                              string
	n                                 int64
	total, avg, p50, p90, p99, maxDur time.Duration
}

// WriteSummary prints the snapshot as a sorted, aligned table:
//
//	counter  engine.merit_evals  412
//	gauge    ssta.levels          12
//	span     ssta.forward   n=824  total=1204.000ms  avg=1.461ms  p50=1.380ms  p90=2.110ms  p99=3.530ms  max=4.120ms
//	tree     nlp.solve      n=1    cum=1374.210ms    self=12.004ms
//	tree       alm.outer    n=12   cum=1362.206ms    self=204.112ms
//
// Rows of each kind render in sorted name order. Every duration
// column uses one shared unit (chosen from the column's largest
// value) with fixed decimals, so mixed-magnitude spans stay aligned;
// columns are padded to the column's widest cell.
func (m *Metrics) WriteSummary(w io.Writer) error {
	m.mu.Lock()
	counterNames := sortedKeys(m.counters)
	gaugeNames := sortedKeys(m.gauges)
	rows := make([]spanRow, 0, len(m.spans))
	var maxTotal, maxAvg, maxQ time.Duration
	for _, name := range sortedKeys(m.spans) {
		s := m.spans[name]
		r := spanRow{
			name:   name,
			n:      s.n.Value(),
			total:  time.Duration(s.ns.Value()),
			p50:    s.h.Quantile(0.50),
			p90:    s.h.Quantile(0.90),
			p99:    s.h.Quantile(0.99),
			maxDur: s.h.Max(),
		}
		if r.n > 0 {
			r.avg = r.total / time.Duration(r.n)
		}
		rows = append(rows, r)
		if r.total > maxTotal {
			maxTotal = r.total
		}
		if r.avg > maxAvg {
			maxAvg = r.avg
		}
		if r.maxDur > maxQ {
			maxQ = r.maxDur
		}
	}
	counterVals := make([]int64, len(counterNames))
	for i, name := range counterNames {
		counterVals[i] = m.counters[name].Value()
	}
	gaugeVals := make([]float64, len(gaugeNames))
	for i, name := range gaugeNames {
		gaugeVals[i] = m.gauges[name].Value()
	}
	tree := m.tree
	m.mu.Unlock()

	// Tree rows: depth-first with two-space indentation; durations
	// share the span columns' units so the sections align.
	type treeRow struct {
		disp      string
		n         int64
		cum, self time.Duration
	}
	var treeRows []treeRow
	if tree != nil {
		tree.Walk(func(n *TreeNode, depth int) {
			r := treeRow{
				disp: strings.Repeat("  ", depth) + n.Name(),
				n:    n.Count(),
				cum:  n.Cum(),
				self: n.Self(),
			}
			treeRows = append(treeRows, r)
			if r.cum > maxTotal {
				maxTotal = r.cum
			}
		})
	}

	width := 0
	for _, set := range [][]string{counterNames, gaugeNames} {
		for _, name := range set {
			if len(name) > width {
				width = len(name)
			}
		}
	}
	for _, r := range rows {
		if len(r.name) > width {
			width = len(r.name)
		}
	}
	for _, r := range treeRows {
		if len(r.disp) > width {
			width = len(r.disp)
		}
	}

	uTotal := pickUnit(maxTotal)
	uAvg := pickUnit(maxAvg)
	uQ := pickUnit(maxQ)
	maxN := int64(0)
	for _, r := range rows {
		if r.n > maxN {
			maxN = r.n
		}
	}
	for _, r := range treeRows {
		if r.n > maxN {
			maxN = r.n
		}
	}
	nW := len(fmt.Sprintf("%d", maxN))
	dW := len(fmtDur(maxTotal, uTotal))
	aW := len(fmtDur(maxAvg, uAvg))
	qW := len(fmtDur(maxQ, uQ))

	for i, name := range counterNames {
		if _, err := fmt.Fprintf(w, "counter  %-*s  %d\n", width, name, counterVals[i]); err != nil {
			return err
		}
	}
	for i, name := range gaugeNames {
		if _, err := fmt.Fprintf(w, "gauge    %-*s  %g\n", width, name, gaugeVals[i]); err != nil {
			return err
		}
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w,
			"span     %-*s  n=%-*d  total=%*s  avg=%*s  p50=%*s  p90=%*s  p99=%*s  max=%*s\n",
			width, r.name, nW, r.n,
			dW, fmtDur(r.total, uTotal), aW, fmtDur(r.avg, uAvg),
			qW, fmtDur(r.p50, uQ), qW, fmtDur(r.p90, uQ),
			qW, fmtDur(r.p99, uQ), qW, fmtDur(r.maxDur, uQ)); err != nil {
			return err
		}
	}
	for _, r := range treeRows {
		if _, err := fmt.Fprintf(w,
			"tree     %-*s  n=%-*d  cum=%*s  self=%*s\n",
			width, r.disp, nW, r.n,
			dW, fmtDur(r.cum, uTotal), dW, fmtDur(r.self, uTotal)); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
