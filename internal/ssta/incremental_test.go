package ssta

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// TestIncMatchesAnalyzeFuzz drives the engine with random size bumps,
// trials, rollbacks and commits on every test circuit (including a
// 1,200-gate generated netlist), six scripts per circuit (fuzzGrid;
// the cells nest as "j<w>" then "t<t>"), and asserts bit-identity
// against fresh taped sweeps throughout — so trials are fuzzed
// against the load cache as well as the adjoint recursion.
func TestIncMatchesAnalyzeFuzz(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		cells := fuzzGrid(42, 1, 64, 0)
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/j%d", name, w), func(t *testing.T) {
				for _, c := range cells {
					if c.workers == w {
						t.Run(fmt.Sprintf("t%d", c.t), func(t *testing.T) { fuzzTrials(t, m, c) })
					}
				}
			})
		}
	}
}

// fuzzTrials is one TestIncMatchesAnalyzeFuzz cell.
func fuzzTrials(t *testing.T, m *delay.Model, c fuzzCell) {
	rng := rand.New(rand.NewSource(c.seed))
	gates := m.G.C.GateIDs()
	inc := NewHier(m, m.UnitSizes(), HierOptions{Workers: c.workers})
	randSize := func() float64 { return 1 + rng.Float64()*(m.Limit-1) }
	for step := 0; step < 40; step++ {
		switch rng.Intn(4) {
		case 0: // a burst of size changes, then one Update
			for i := 0; i < 1+rng.Intn(4); i++ {
				inc.SetSize(gates[rng.Intn(len(gates))], randSize())
			}
			inc.Update()
		case 1: // rejected what-if move
			before := inc.Update()
			inc.Trial()
			for i := 0; i < 1+rng.Intn(3); i++ {
				inc.SetSize(gates[rng.Intn(len(gates))], randSize())
			}
			inc.Update()
			if got := inc.Rollback(); got != before {
				t.Fatalf("rollback Tmax %+v, want %+v", got, before)
			}
		case 2: // accepted what-if move
			inc.Trial()
			inc.SetSize(gates[rng.Intn(len(gates))], randSize())
			inc.Update()
			inc.Commit()
		case 3: // no-op Update (cached path)
			inc.Update()
		}
		if step%5 == 0 {
			checkMatchesFresh(t, inc, m, 3)
		}
	}
	checkMatchesFresh(t, inc, m, 3)
}

// TestIncRollbackRestores asserts Rollback restores every slab the
// trial touched bit for bit — including sizes changed and then changed
// back, a full Resweep inside the trial, and a rollback taken with
// dirty marks still pending.
func TestIncRollbackRestores(t *testing.T) {
	m := parallelTestModels(t)["apex1"]
	gates := m.G.C.GateIDs()
	inc := NewHier(m, m.UnitSizes(), HierOptions{})
	inc.SetSize(gates[0], 1.5)
	want := inc.Update()

	n := len(m.G.C.Nodes)
	arr := make([]float64, 0, 2*n)
	for id := 0; id < n; id++ {
		a := inc.Arrival(netlist.NodeID(id))
		arr = append(arr, a.Mu, a.Var)
	}
	sizes := append([]float64(nil), inc.Sizes()...)

	checkRestored := func() {
		t.Helper()
		if got := inc.Update(); got != want {
			t.Fatalf("post-rollback Update Tmax %+v, want %+v", got, want)
		}
		for id := 0; id < n; id++ {
			a := inc.Arrival(netlist.NodeID(id))
			if a.Mu != arr[2*id] || a.Var != arr[2*id+1] {
				t.Fatalf("node %d arrival not restored", id)
			}
		}
		for id, s := range inc.Sizes() {
			if s != sizes[id] {
				t.Fatalf("size[%d] not restored: %v != %v", id, s, sizes[id])
			}
		}
	}

	inc.Trial()
	for i, id := range gates {
		if i%3 == 0 {
			inc.SetSize(id, 2.5)
		}
	}
	inc.Update()
	inc.SetSize(gates[1], 1.1) // left pending: Rollback must discard it
	if got := inc.Rollback(); got != want {
		t.Fatalf("rollback Tmax %+v, want %+v", got, want)
	}
	checkRestored()

	// A full pass inside a trial, with a mark pending, must leave the
	// undo log complete.
	inc.Trial()
	inc.SetSize(gates[len(gates)-1], 1.9)
	inc.Resweep()
	if got := inc.Rollback(); got != want {
		t.Fatalf("rollback after Resweep: Tmax %+v, want %+v", got, want)
	}
	checkRestored()
}

// TestIncTrialGenerationWrap asserts a trial opened as the 32-bit
// generation counter wraps still logs every overwritten slab: stamps
// left over from an earlier generation with the same number must not
// suppress a save.
func TestIncTrialGenerationWrap(t *testing.T) {
	m := parallelTestModels(t)["apex1"]
	gates := m.G.C.GateIDs()
	h := NewHier(m, m.UnitSizes(), HierOptions{})
	want := h.Update()
	// Pretend generation 1 stamped every node long ago and the counter
	// is about to wrap back onto it.
	for i := range h.nodeGen {
		h.nodeGen[i], h.sGen[i] = 1, 1
	}
	h.gen = math.MaxUint32
	h.Trial()
	for _, id := range gates[:len(gates)/2] {
		h.SetSize(id, 2.2)
	}
	h.Update()
	if got := h.Rollback(); got != want {
		t.Fatalf("rollback after wrap: Tmax %+v, want %+v", got, want)
	}
	for _, id := range gates {
		if h.Sizes()[id] != 1 {
			t.Fatalf("size of gate %d not restored: %v", id, h.Sizes()[id])
		}
	}
	checkMatchesFresh(t, h, m, 3)
}

// eventSink captures Event calls as formatted lines; the metric
// channels (which may carry wall-clock data) are discarded.
type eventSink struct{ lines []string }

func (e *eventSink) Event(scope, name string, fields ...telemetry.KV) {
	line := scope + "." + name
	for _, f := range fields {
		line += fmt.Sprintf(" %s=%g", f.Key, f.Val)
	}
	e.lines = append(e.lines, line)
}
func (e *eventSink) Count(string, int64)        {}
func (e *eventSink) Gauge(string, float64)      {}
func (e *eventSink) Span(string, time.Duration) {}

// TestIncUpdateEventsWorkerInvariant replays the same bump script on
// two fresh engines, one of them given the ignored Workers: 4, and
// asserts the "inc.update" event stream — dirty and frontier counts
// included — is identical.
func TestIncUpdateEventsWorkerInvariant(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	run := func(workers int) []string {
		sink := &eventSink{}
		inc := NewHier(m, m.UnitSizes(), HierOptions{Workers: workers, Recorder: sink})
		for step := 0; step < 10; step++ {
			inc.SetSize(gates[(step*37)%len(gates)], 1+0.2*float64(step%7))
			inc.Update()
		}
		return sink.lines
	}
	serial, parallel := run(1), run(4)
	if len(serial) != len(parallel) {
		t.Fatalf("event counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("event %d differs:\n  j1: %s\n  j4: %s", i, serial[i], parallel[i])
		}
	}
	if len(serial) == 0 {
		t.Fatal("no inc.update events recorded")
	}
}

// TestIncSteadyStateAllocFree asserts the engine's steady-state
// loop — SetSize, Update, Backward — performs zero heap allocations
// per step once warm.
func TestIncSteadyStateAllocFree(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	inc := NewHier(m, m.UnitSizes(), HierOptions{})
	// The schedule is cyclic, so one warm pass reaches the steady state:
	// the dirty bitset is sized at construction and the adjoint scratch
	// never grows.
	step := 0
	doStep := func() {
		id := gates[(step*31)%len(gates)]
		inc.SetSize(id, 1+0.3*float64(step%5))
		inc.GradMuPlusKSigma(3)
		step = (step + 1) % 50
	}
	for i := 0; i < 50; i++ {
		doStep()
	}
	allocs := testing.AllocsPerRun(50, doStep)
	if allocs != 0 {
		t.Fatalf("steady-state SetSize+Update+Backward allocates %.1f per step, want 0", allocs)
	}
}

// TestIncTrialSteadyStateAllocFree asserts a warm trial/rollback cycle
// is also allocation-free: the undo log and its tape buffer are
// reused across trials.
func TestIncTrialSteadyStateAllocFree(t *testing.T) {
	m := parallelTestModels(t)["tree7"]
	gates := m.G.C.GateIDs()
	inc := NewHier(m, m.UnitSizes(), HierOptions{})
	step := 0
	cycle := func() {
		inc.Trial()
		inc.SetSize(gates[step%len(gates)], 1+0.4*float64(step%4))
		inc.Update()
		inc.Rollback()
		step = (step + 1) % 28 // lcm of the gate and size cycles
	}
	for i := 0; i < 28; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state trial cycle allocates %.1f per step, want 0", allocs)
	}
}

// TestIncSetSizePanics pins the misuse contracts: sizing a non-gate
// node and nesting trials both panic.
func TestIncSetSizePanics(t *testing.T) {
	m := parallelTestModels(t)["tree7"]
	inc := NewHier(m, m.UnitSizes(), HierOptions{})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	input := netlist.NodeID(-1)
	for i := range m.G.C.Nodes {
		if m.G.C.Nodes[i].Kind == netlist.KindInput {
			input = netlist.NodeID(i)
			break
		}
	}
	mustPanic("SetSize(input)", func() { inc.SetSize(input, 2) })
	gate := m.G.C.GateIDs()[0]
	mustPanic("SetSize(NaN)", func() { inc.SetSize(gate, math.NaN()) })
	mustPanic("SetSize(+Inf)", func() { inc.SetSize(gate, math.Inf(1)) })
	mustPanic("SetSize(-Inf)", func() { inc.SetSize(gate, math.Inf(-1)) })
	inc.Trial()
	mustPanic("nested Trial", func() { inc.Trial() })
	inc.Commit()
	mustPanic("Commit outside trial", func() { inc.Commit() })
	mustPanic("Rollback outside trial", func() { inc.Rollback() })
	// The rejected non-finite sizes must not have poisoned the engine:
	// its state still matches a fresh sweep bit for bit.
	checkMatchesFresh(t, inc, m, 3)
}

// TestIncCriticalityMatchesWorkers pins the warm-engine criticality
// accessor against the fresh-sweep entry point after a trajectory of
// size nudges, two per circuit. The cells keep the names "j1"/"j4" of
// the worker counts they once ran at, so test ids stay stable; j4
// passes the ignored Workers: 4 and replays its own seed.
func TestIncCriticalityMatchesWorkers(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		for i, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/j%d", name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7 + i)))
				gates := m.G.C.GateIDs()
				inc := NewHier(m, m.UnitSizes(), HierOptions{Workers: workers})
				for step := 0; step < 8; step++ {
					g := gates[rng.Intn(len(gates))]
					inc.SetSize(g, 1+rng.Float64()*(m.Limit-1))
					warm := inc.Criticality()
					fresh := Criticality(m, inc.Sizes())
					for id := range fresh {
						if warm[id] != fresh[id] {
							t.Fatalf("step %d: criticality[%d] diverged: warm %v fresh %v",
								step, id, warm[id], fresh[id])
						}
					}
				}
			})
		}
	}
}

// TestIncMemoryBytes sanity-checks the footprint estimate: positive,
// larger for larger circuits, covering at least the dominant moment
// slabs — and within 15% of the heap an engine actually retains after
// a gradient and a trial, since the session LRU's byte budget is built
// on it.
func TestIncMemoryBytes(t *testing.T) {
	models := parallelTestModels(t)
	small := NewHier(models["tree7"], models["tree7"].UnitSizes(), HierOptions{})
	large := NewHier(models["k2"], models["k2"].UnitSizes(), HierOptions{})
	sb, lb := small.MemoryBytes(), large.MemoryBytes()
	if sb <= 0 || lb <= 0 {
		t.Fatalf("non-positive footprints: %d, %d", sb, lb)
	}
	if lb <= sb {
		t.Fatalf("k2 footprint %d not larger than tree7's %d", lb, sb)
	}
	if min := int64(len(models["k2"].G.C.Nodes)) * 2 * 16; lb < min {
		t.Fatalf("k2 footprint %d below its moment slabs alone (%d)", lb, min)
	}
	// The sweep-order slabs: the speed factors by NodeID and by
	// position, the position-ordered TInt and CLoad copies, and per
	// edge the fanin and fanout positions, the fanout NodeIDs and the
	// per-pin C_in and offset copies.
	k2 := models["k2"].G
	n, e := int64(len(k2.C.Nodes)), int64(k2.Edges)
	if min := n*(2*16+4*8) + e*(3*4+2*8); lb < min {
		t.Fatalf("k2 footprint %d below its moment, size, model-copy and pin slabs (%d)", lb, min)
	}

	// session10k is the what-if sessions' circuit shape: the unit the
	// session LRU budgets in.
	session, err := netlist.Generate(netlist.GenSpec{Name: "session10k", Gates: 10_000, Inputs: 128, Outputs: 32,
		Depth: 40, MaxFanin: 4, Seed: 10_007})
	if err != nil {
		t.Fatal(err)
	}
	models["session10k"] = delay.MustBind(netlist.MustCompile(session), delay.Default())
	for _, name := range []string{"k2", "gen1200", "session10k"} {
		m := models[name]
		gates := m.G.C.GateIDs()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h := NewHier(m, m.UnitSizes(), HierOptions{})
		h.GradMuPlusKSigma(3)
		h.Trial()
		for _, id := range gates[:len(gates)/4] {
			h.SetSize(id, 2)
		}
		h.Update()
		h.Rollback()
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		ratio := retained / float64(h.MemoryBytes())
		runtime.KeepAlive(h)
		t.Logf("%s: retained/MemoryBytes = %.3f", name, ratio)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: retained heap %.0f B is %.2fx MemoryBytes %d, want within 15%%",
				name, retained, ratio, h.MemoryBytes())
		}
	}
}
