package sizing

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/telemetry"
)

// BenchmarkGreedyIncremental1200 runs a fixed number of sensitivity
// steps (the deadline is infeasible, so the step count is exactly
// MaxSteps) on the 1200-gate generated netlist, on the incremental
// engine with serial sweeps.
func BenchmarkGreedyIncremental1200(b *testing.B) {
	m := genModel(b, 1200)
	opt := GreedyOptions{K: 3, Deadline: 0.01, MaxSteps: 64, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SizeGreedy(m, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// gen100k is the canonical 100k-gate benchmark netlist (the
// cmd/circuitgen gen100k preset), streamed and compiled once per test
// binary, as the greedy100k workload builds it.
var (
	gen100kOnce sync.Once
	gen100kM    *delay.Model
)

func gen100kModel(b *testing.B) *delay.Model {
	b.Helper()
	gen100kOnce.Do(func() {
		var buf bytes.Buffer
		if err := netlist.GenerateStream(&buf, netlist.Gen100kSpec()); err != nil {
			panic(err)
		}
		c, err := netlist.ReadCKT(&buf)
		if err != nil {
			panic(err)
		}
		gen100kM = delay.MustBind(netlist.MustCompile(c), delay.Default())
	})
	return gen100kM
}

// dirtyCounter sums the dirty counts of the engine's "inc.update"
// events: the nodes each step's Update re-evaluated.
type dirtyCounter struct{ nodes int64 }

func (c *dirtyCounter) Event(scope, name string, fields ...telemetry.KV) {
	if scope != "inc" || name != "update" {
		return
	}
	for _, f := range fields {
		if f.Key == "dirty" {
			c.nodes += int64(f.Val)
		}
	}
}
func (c *dirtyCounter) Count(string, int64)        {}
func (c *dirtyCounter) Gauge(string, float64)      {}
func (c *dirtyCounter) Span(string, time.Duration) {}

// BenchmarkGreedyStepGen100k is one warm greedy sizing step on gen100k:
// the sizer's own step — the sweep-order mu+3sigma gradient, the pick,
// the bump and the engine's dirty-cone update it triggers at the next
// pass — with the greedy100k workload's deadline (half the unsized
// quantile, out of reach, so every step bumps a gate). It reports the
// nodes re-evaluated per step (nodes/op) from a fixed 100-step replay
// of the same script on a fresh run with a counter attached; the timed
// loop runs without a recorder.
func BenchmarkGreedyStepGen100k(b *testing.B) {
	m := gen100kModel(b)
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	deadline := 0.5 * (unit.Mu + 3*unit.Sigma())
	const warm, counted = 50, 100
	opt := GreedyOptions{K: 3, Deadline: deadline, Step: 1.05}
	run := newGreedyRun(m, &opt, nil)
	for i := 0; i < warm; i++ {
		run.step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if id, _ := run.step(warm + i); id < 0 {
			b.Fatal("greedy step bumped nothing")
		}
	}
	b.StopTimer()
	dc := &dirtyCounter{}
	ropt := opt
	ropt.Recorder = dc
	replay := newGreedyRun(m, &ropt, nil)
	for i := 0; i < warm; i++ {
		replay.step(i)
	}
	dc.nodes = 0
	for i := 0; i < counted; i++ {
		replay.step(warm + i)
	}
	b.ReportMetric(float64(dc.nodes)/counted, "nodes/op")
}
