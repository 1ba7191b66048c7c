package ssta

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// fuzzCell is one subtest of the engine fuzzers, named "j<workers>"
// and "t<t>" (see fuzzGrid).
type fuzzCell struct {
	workers, t int
	seed       int64
}

// fuzzGrid names the engine fuzzers' subtests "j<w>/t<t>" for w in
// {1, 4} and each label t, and gives every cell its own seed, counting
// up from base in that order, so the first cell replays the base
// script. The labels are those of the workers x block-target grid the
// fuzzers ran while the engine had block-parallel passes; they are
// kept so test ids stay stable. j still sets HierOptions.Workers,
// which the engine ignores, and t selects nothing: the cells differ
// in their seed only, so each replays a distinct script.
func fuzzGrid(base int64, ts ...int) []fuzzCell {
	var cells []fuzzCell
	for _, w := range []int{1, 4} {
		for _, t := range ts {
			cells = append(cells, fuzzCell{w, t, base + int64(len(cells))})
		}
	}
	return cells
}

// checkMatchesFresh asserts the engine's full forward state, the
// objective and the gradient are bit-identical to a fresh flat taped
// sweep at the engine's current sizes.
func checkMatchesFresh(t *testing.T, h *Hier, m *delay.Model, k float64) {
	t.Helper()
	phiH, gradH := h.GradMuPlusKSigma(k)
	S := h.Sizes()
	fresh := Analyze(m, S, true)
	if h.Tmax() != fresh.Tmax {
		t.Fatalf("Tmax diverged: engine %+v fresh %+v", h.Tmax(), fresh.Tmax)
	}
	for id := range fresh.Arrival {
		nid := netlist.NodeID(id)
		if h.Arrival(nid) != fresh.Arrival[id] {
			t.Fatalf("node %d arrival diverged: engine %+v fresh %+v",
				id, h.Arrival(nid), fresh.Arrival[id])
		}
		if h.GateDelay(nid) != fresh.GateDelay[id] {
			t.Fatalf("node %d gate delay diverged: engine %+v fresh %+v",
				id, h.GateDelay(nid), fresh.GateDelay[id])
		}
	}
	phiF, sMu, sVar := ObjectiveMuPlusKSigma(fresh.Tmax, k)
	if math.Float64bits(phiH) != math.Float64bits(phiF) {
		t.Fatalf("phi diverged: engine %v fresh %v", phiH, phiF)
	}
	gradF := fresh.Backward(m, S, sMu, sVar)
	for id := range gradF {
		if math.Float64bits(gradH[id]) != math.Float64bits(gradF[id]) {
			t.Fatalf("grad[%d] diverged: engine %v fresh %v", id, gradH[id], gradF[id])
		}
	}
}

// TestHierInitialSweepBitIdentical pins the construction-time forward
// pass against the flat sweeps for every circuit.
func TestHierInitialSweepBitIdentical(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		want := Analyze(m, S, true)
		h := NewHier(m, S, HierOptions{})
		if h.Tmax() != want.Tmax {
			t.Fatalf("%s: Tmax %+v != flat %+v", name, h.Tmax(), want.Tmax)
		}
		for id := range want.Arrival {
			if h.Arrival(netlist.NodeID(id)) != want.Arrival[id] {
				t.Fatalf("%s: Arrival[%d] differs", name, id)
			}
		}
	}
}

// TestHierMatchesFlatFuzz drives the engine with random size bursts,
// no-op updates and full resweeps, six scripts per circuit (fuzzGrid),
// asserting bit-identity against fresh flat sweeps throughout — early
// cutoff included, since most nodes stay clean across the small
// bursts.
func TestHierMatchesFlatFuzz(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		for _, c := range fuzzGrid(99, 1, 64, len(m.G.C.Nodes)) {
			t.Run(fmt.Sprintf("%s/j%d/t%d", name, c.workers, c.t), func(t *testing.T) {
				rng := rand.New(rand.NewSource(c.seed))
				gates := m.G.C.GateIDs()
				h := NewHier(m, m.UnitSizes(), HierOptions{Workers: c.workers})
				randSize := func() float64 { return 1 + rng.Float64()*(m.Limit-1) }
				for step := 0; step < 24; step++ {
					switch rng.Intn(4) {
					case 0: // a burst of size changes, then one Update
						for i := 0; i < 1+rng.Intn(4); i++ {
							h.SetSize(gates[rng.Intn(len(gates))], randSize())
						}
						h.Update()
					case 1: // a bit-identical write must dirty nothing
						id := gates[rng.Intn(len(gates))]
						h.SetSize(id, h.Sizes()[id])
						h.Update()
					case 2: // full resweep with marks pending
						h.SetSize(gates[rng.Intn(len(gates))], randSize())
						h.Resweep()
					case 3: // no-op Update (cached Tmax path)
						h.Update()
					}
					if step%4 == 0 {
						checkMatchesFresh(t, h, m, 3)
					}
				}
				checkMatchesFresh(t, h, m, 3)
			})
		}
	}
}

// TestHierCriticalityMatches pins the engine adjoint's dmu byproduct
// against the flat criticality sweep.
func TestHierCriticalityMatches(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		want := Criticality(m, S)
		got := NewHier(m, S, HierOptions{}).Criticality()
		for id := range want {
			if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
				t.Fatalf("%s: criticality[%d] = %v, want %v", name, id, got[id], want[id])
			}
		}
	}
}

// TestHierBackwardSeeds sweeps the adjoint seeds the objective paths
// use, pinning the engine's backward pass against Result.Backward.
func TestHierBackwardSeeds(t *testing.T) {
	seeds := [][2]float64{{1, 0}, {1, 0.35}, {0, 1}}
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		r := Analyze(m, S, true)
		h := NewHier(m, S, HierOptions{})
		for _, sd := range seeds {
			want := r.Backward(m, S, sd[0], sd[1])
			got := h.Backward(sd[0], sd[1])
			for id := range want {
				if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
					t.Fatalf("%s seed=%v: grad[%d] = %v, want %v", name, sd, id, got[id], want[id])
				}
			}
		}
	}
}

// dominatedModel is a hand-built circuit whose adjoint is exactly zero
// on part of the graph: the input "late" arrives so far behind every
// other signal that each max it enters leaves its other operand
// Phi(-alpha) = 0 and a zero pdf term, so those gates' adjoint pairs
// stay +0 and the sweep skips them. The input "pass" is wired straight
// to a primary output, the level-1 gate g6, so the first level the
// sweep walks pushes adjoint into an input's slot, which no walk
// consumes.
func dominatedModel(t *testing.T) *delay.Model {
	t.Helper()
	c := netlist.New("dominated")
	for _, in := range []string{"a", "b", "late", "pass"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range [][]string{
		{"g0", "inv", "a"},
		{"g1", "inv", "b"},
		{"g2", "nand2", "late", "g1"},
		{"g3", "nand2", "g0", "g2"},
		{"g4", "inv", "g0"},
		{"g5", "nand2", "g4", "pass"},
		{"g6", "inv", "pass"},
	} {
		if _, err := c.AddGate(g[0], g[1], g[2:]...); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []string{"g3", "g5", "g6"} {
		if err := c.MarkOutput(o); err != nil {
			t.Fatal(err)
		}
	}
	m := delay.MustBind(netlist.MustCompile(c), delay.Default())
	late, _ := c.Lookup("late")
	m.Arrival[late] = stats.MV{Mu: 1000, Var: 1}
	return m
}

// TestHierConsecutivePassesBitwise runs two gradient passes with
// different seeds, a size change, and a criticality pass on one
// engine, checking each bit for bit against a fresh flat pass. The
// engine clears no slab between passes, so an adjoint or gradient
// entry one pass left behind — a -0 included — would show in the
// next. Two fixtures have exactly-zero adjoints: the dominated circuit
// and gen1200 under the zero sigma model, where every max selects one
// operand and leaves the other a zero adjoint, so gates the sweep
// skips have live drivers that add load terms to their gradient
// slots. Both must yield exactly-zero criticalities next to non-zero
// ones, or they would not exercise the skipped gates.
func TestHierConsecutivePassesBitwise(t *testing.T) {
	models := parallelTestModels(t)
	models["dominated"] = dominatedModel(t)
	det := delay.MustBind(models["gen1200"].G, delay.Default())
	det.Sigma = delay.Zero{}
	models["gen1200/zero-sigma"] = det
	zeros := map[string]bool{"dominated": true, "gen1200/zero-sigma": true}
	var h *Hier
	same := func(name, what string, got, want []float64) {
		t.Helper()
		for id := range want {
			if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
				t.Fatalf("%s %s: [%d] = %v, want %v", name, what, id, got[id], want[id])
			}
		}
		// Between passes the adjoint slab is all +0: consumed pairs
		// are zeroed by the walk, the inputs' cleared after it.
		for p, a := range h.adj {
			if math.Float64bits(a.Mu)|math.Float64bits(a.Var) != 0 {
				t.Fatalf("%s %s: adjoint slot %d left %+v", name, what, p, a)
			}
		}
	}
	for name, m := range models {
		S := rampSizes(m)
		h = NewHier(m, S, HierOptions{})
		r := Analyze(m, S, true)
		same(name, "seed (1, 0.35)", h.Backward(1, 0.35), r.Backward(m, S, 1, 0.35))
		// A pure variance seed: under the zero sigma model every live
		// gate then has d = +0 and a -0 own term, which must read +0.
		same(name, "seed (0, 1)", h.Backward(0, 1), r.Backward(m, S, 0, 1))
		same(name, "seed (-0.5, 2)", h.Backward(-0.5, 2), r.Backward(m, S, -0.5, 2))
		g := m.G.C.GateIDs()[len(S)%len(m.G.C.GateIDs())]
		S[g] = 1.5
		h.SetSize(g, S[g])
		r = Analyze(m, S, true)
		same(name, "seed (1, -0.2) after SetSize", h.Backward(1, -0.2), r.Backward(m, S, 1, -0.2))
		crit := h.Criticality()
		want := Criticality(m, S)
		same(name, "criticality", crit, want)
		if zeros[name] {
			var zero, live int
			for _, id := range m.G.C.GateIDs() {
				if want[id] == 0 {
					zero++
				} else {
					live++
				}
			}
			if zero == 0 || live == 0 {
				t.Fatalf("%s: %d zero and %d non-zero criticalities, want both", name, zero, live)
			}
		}
		same(name, "seed (1, 0.35) after criticality", h.Backward(1, 0.35), r.Backward(m, S, 1, 0.35))
	}
}

// TestHierMacroReplayCounts asserts the dirty cone is node-granular:
// a single-gate bump on the big generated netlist re-evaluates fewer
// than half its nodes, and a no-op Update emits nothing.
func TestHierMacroReplayCounts(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	sink := &eventSink{}
	h := NewHier(m, m.UnitSizes(), HierOptions{Recorder: sink})
	h.SetSize(gates[len(gates)/2], 2.0)
	h.Update()
	var upd, dirty int
	found := false
	for _, ln := range sink.lines {
		if n, _ := fmt.Sscanf(ln, "inc.update update=%d dirty=%d", &upd, &dirty); n == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no inc.update event in %q", sink.lines)
	}
	if nodes := len(m.G.C.Nodes); dirty == 0 || 2*dirty >= nodes {
		t.Fatalf("single bump re-evaluated %d of %d nodes; want a nonempty cone under half", dirty, nodes)
	}
	sink.lines = nil
	h.Update()
	if len(sink.lines) != 0 {
		t.Fatalf("no-op Update emitted %q", sink.lines)
	}
}

// TestHierTraceByteIdentical runs the same bump script through JSONL
// trace sinks on two fresh engines, one of them given the ignored
// Workers: 4, and asserts the trace bytes are identical: the hier
// events are deterministic and the worker field changes nothing.
func TestHierTraceByteIdentical(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	run := func(workers int) []byte {
		var buf bytes.Buffer
		tw := telemetry.NewTraceWriter(&buf)
		h := NewHier(m, m.UnitSizes(), HierOptions{Workers: workers, Recorder: tw})
		for step := 0; step < 12; step++ {
			h.SetSize(gates[(step*37)%len(gates)], 1+0.2*float64(step%7))
			h.Update()
			if step%5 == 4 {
				h.Resweep()
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := run(1), run(4)
	if len(serial) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("traces differ between 1 and 4 workers:\n j1 %d bytes\n j4 %d bytes", len(serial), len(parallel))
	}
}

// TestHierSteadyStateAllocFree asserts the engine's warm loop —
// SetSize, Update, adjoint — performs zero heap allocations per step,
// also when given the ignored Workers: 4, which must start nothing.
func TestHierSteadyStateAllocFree(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	for _, opt := range []HierOptions{{}, {Workers: 4}} {
		h := NewHier(m, m.UnitSizes(), opt)
		step := 0
		doStep := func() {
			id := gates[(step*31)%len(gates)]
			h.SetSize(id, 1+0.3*float64(step%5))
			h.GradMuPlusKSigma(3)
			step = (step + 1) % 50
		}
		for i := 0; i < 50; i++ {
			doStep()
		}
		allocs := testing.AllocsPerRun(50, doStep)
		if allocs != 0 {
			t.Fatalf("Workers %d: steady-state SetSize+Update+Backward allocates %.1f per step, want 0",
				opt.Workers, allocs)
		}
	}
}

// TestHierSetSizePanics pins the misuse contracts: sizing a non-gate
// node or passing a non-finite size panics, and the rejected sizes
// leave the engine matching a fresh sweep bit for bit.
func TestHierSetSizePanics(t *testing.T) {
	m := parallelTestModels(t)["tree7"]
	h := NewHier(m, m.UnitSizes(), HierOptions{})
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
	if input < 0 {
		t.Fatal("no input node found")
	}
	mustPanic("SetSize(input)", func() { h.SetSize(input, 2) })
	gate := m.G.C.GateIDs()[0]
	mustPanic("SetSize(NaN)", func() { h.SetSize(gate, math.NaN()) })
	mustPanic("SetSize(+Inf)", func() { h.SetSize(gate, math.Inf(1)) })
	mustPanic("SetSize(-Inf)", func() { h.SetSize(gate, math.Inf(-1)) })
	checkMatchesFresh(t, h, m, 3)
}

// TestHierSetSizesMatchesFreshFuzz drives the engine with random
// whole-vector moves — bit-identical (no-op), partial, and pinned at 1
// or Limit — interleaved with SetSize/Update bursts, trials that
// commit or roll back, and SetSize marks left pending across a bulk
// move, six scripts per circuit (fuzzGrid). After every step the
// engine must match a fresh taped sweep and adjoint bit for bit
// (checkMatchesFresh: Tmax, arrivals, gate delays, phi and the
// gradient).
func TestHierSetSizesMatchesFreshFuzz(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		for _, c := range fuzzGrid(7, 1, 64, 0) {
			t.Run(fmt.Sprintf("%s/j%d/t%d", name, c.workers, c.t), func(t *testing.T) { fuzzSetSizes(t, m, c) })
		}
	}
}

// fuzzSetSizes is one TestHierSetSizesMatchesFreshFuzz cell.
func fuzzSetSizes(t *testing.T, m *delay.Model, c fuzzCell) {
	rng := rand.New(rand.NewSource(c.seed))
	gates := m.G.C.GateIDs()
	h := NewHier(m, m.UnitSizes(), HierOptions{Workers: c.workers})
	randSize := func() float64 { return 1 + rng.Float64()*(m.Limit-1) }
	x := make([]float64, len(gates))
	current := func() {
		for i, id := range gates {
			x[i] = h.Sizes()[id]
		}
	}
	for step := 0; step < 30; step++ {
		switch rng.Intn(6) {
		case 0: // no-op: the engine's own sizes
			current()
			before := h.Tmax()
			if h.SetSizes(gates, x) {
				t.Fatalf("step %d: a bit-identical vector reported a move", step)
			}
			if h.Tmax() != before {
				t.Fatalf("step %d: a no-op SetSizes changed Tmax", step)
			}
		case 1: // partial move: a random fraction of the gates
			current()
			frac := rng.Float64()
			for i := range x {
				if rng.Float64() < frac {
					x[i] = randSize()
				}
			}
			h.SetSizes(gates, x)
		case 2: // line-search shape: the rest pinned at a bound
			for i := range x {
				switch rng.Intn(3) {
				case 0:
					x[i] = 1
				case 1:
					x[i] = m.Limit
				default:
					x[i] = randSize()
				}
			}
			h.SetSizes(gates, x)
		case 3: // SetSize marks left pending, then a bulk move
			h.SetSize(gates[rng.Intn(len(gates))], randSize())
			current()
			x[rng.Intn(len(x))] = randSize()
			h.SetSizes(gates, x)
		case 4: // a SetSize burst and one Update
			for i := 0; i < 1+rng.Intn(4); i++ {
				h.SetSize(gates[rng.Intn(len(gates))], randSize())
			}
			h.Update()
		case 5: // a trial that commits or rolls back
			before := h.Update()
			h.Trial()
			h.SetSize(gates[rng.Intn(len(gates))], randSize())
			h.Update()
			if rng.Intn(2) == 0 {
				h.Commit()
			} else if got := h.Rollback(); got != before {
				t.Fatalf("step %d: rollback Tmax %+v, want %+v", step, got, before)
			}
		}
		checkMatchesFresh(t, h, m, 3)
	}
}

// TestHierSetSizesPanics pins SetSizes' misuse contracts: a non-finite
// entry, a non-gate id, unequal lengths and a call inside a trial all
// panic before anything is written, so the engine still matches a
// fresh sweep at its old sizes bit for bit.
func TestHierSetSizesPanics(t *testing.T) {
	m := parallelTestModels(t)["apex1"]
	gates := m.G.C.GateIDs()
	h := NewHier(m, rampSizes(m), HierOptions{})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	old := append([]float64(nil), h.Sizes()...)
	untouched := func(name string) {
		t.Helper()
		for id := range old {
			if h.Sizes()[id] != old[id] {
				t.Fatalf("%s wrote S[%d] = %v, was %v", name, id, h.Sizes()[id], old[id])
			}
		}
		checkMatchesFresh(t, h, m, 3)
	}
	// Every entry but the last is a valid move, so a check that wrote
	// as it scanned would leave them behind.
	x := make([]float64, len(gates))
	for i := range x {
		x[i] = m.Limit
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x[len(x)-1] = bad
		mustPanic(fmt.Sprintf("SetSizes(%v)", bad), func() { h.SetSizes(gates, x) })
		untouched(fmt.Sprintf("SetSizes(%v)", bad))
	}
	x[len(x)-1] = m.Limit
	ids := append([]netlist.NodeID(nil), gates...)
	ids[len(ids)-1] = m.G.Levels[0][0] // level 0 holds exactly the inputs
	mustPanic("SetSizes(input)", func() { h.SetSizes(ids, x) })
	untouched("SetSizes(input)")
	mustPanic("SetSizes(short x)", func() { h.SetSizes(gates, x[:len(x)-1]) })
	untouched("SetSizes(short x)")
	h.Trial()
	mustPanic("SetSizes in a trial", func() { h.SetSizes(gates, x) })
	h.Rollback()
	untouched("SetSizes in a trial")
}

// TestHierSetSizesWarmAllocFree pins the reduced solver's steady state
// on the engine: a warm whole-vector move plus an adjoint pass
// allocates nothing.
func TestHierSetSizesWarmAllocFree(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	h := NewHier(m, m.UnitSizes(), HierOptions{})
	x := make([]float64, len(gates))
	step := 0
	doStep := func() {
		for i := range x {
			x[i] = 1 + 0.25*float64((i+step)%7)
		}
		h.SetSizes(gates, x)
		h.Backward(1, 0.5)
		step++
	}
	for i := 0; i < 10; i++ {
		doStep()
	}
	if allocs := testing.AllocsPerRun(20, doStep); allocs != 0 {
		t.Fatalf("warm SetSizes+Backward allocates %.1f per step, want 0", allocs)
	}
}

// lastUpdate records the counts of the most recent "inc.update" event.
type lastUpdate struct {
	events          int
	dirty, frontier int
}

func (u *lastUpdate) Event(scope, name string, fields ...telemetry.KV) {
	if scope != "inc" || name != "update" {
		return
	}
	u.events++
	for _, f := range fields {
		switch f.Key {
		case "dirty":
			u.dirty = int(f.Val)
		case "frontier":
			u.frontier = int(f.Val)
		}
	}
}
func (u *lastUpdate) Count(string, int64)        {}
func (u *lastUpdate) Gauge(string, float64)      {}
func (u *lastUpdate) Span(string, time.Duration) {}

// TestHierConeMatchesOracle checks the nodes each Update re-evaluates
// against an oracle built from two fresh sweeps: the SDependents of the
// gates whose size moved, plus the fanouts of every node whose arrival
// differs between a fresh Analyze before and after the moves. The
// reported dirty count must equal that set's size (so no node is
// evaluated twice), the evaluated nodes must be exactly that set (so
// none is skipped or added), and the frontier must equal the number of
// changed nodes. Two random bump scripts per circuit run outside
// trials and inside committed and rolled-back ones.
//
// Outside a trial the evaluated set is read back by overwriting every
// gate delay with a sentinel before Update (a node's forward fold
// reads only its fanins' arrivals, never another gate's delay) and
// collecting the gates that no longer hold it; inside a trial it is
// the undo log, which saves each re-evaluated node once.
func TestHierConeMatchesOracle(t *testing.T) {
	models := parallelTestModels(t)
	sentinel := stats.MV{Mu: -1, Var: -1}
	choices := []float64{1, 1.3, 1.6, 2, 2.5}
	for _, name := range []string{"gen1200", "k2"} {
		m := models[name]
		g := m.G
		gates := g.C.GateIDs()
		for _, seed := range []int64{8, 11} {
			rng := rand.New(rand.NewSource(seed))
			rec := &lastUpdate{}
			h := NewHier(m, rampSizes(m), HierOptions{Recorder: rec})
			saved := make([]stats.MV, len(g.C.Nodes))
			for round := 0; round < 80; round++ {
				before := Analyze(m, h.Sizes(), false)
				mode := rng.Intn(3) // 0 plain, 1 trial+commit, 2 trial+rollback
				if mode > 0 {
					h.Trial()
				}
				var moved []netlist.NodeID
				move := func(id netlist.NodeID, s float64) {
					if h.Sizes()[id] != s {
						moved = append(moved, id)
					}
					h.SetSize(id, s)
				}
				for k := rng.Intn(5); k > 0; k-- {
					id := gates[rng.Intn(len(gates))]
					orig := h.Sizes()[id]
					move(id, choices[rng.Intn(len(choices))])
					if rng.Intn(3) == 0 {
						// Moving back leaves the gate's dependents dirty
						// with nothing changed: early cutoff's case.
						move(id, orig)
					}
				}
				after := Analyze(m, h.Sizes(), false)
				want := map[netlist.NodeID]bool{}
				for _, id := range moved {
					m.SDependents(id, func(d netlist.NodeID) { want[d] = true })
				}
				changed := 0
				for v := range g.C.Nodes {
					if before.Arrival[v] == after.Arrival[v] {
						continue
					}
					changed++
					for _, f := range g.Fanout[v] {
						want[f] = true
					}
				}

				if mode == 0 {
					copy(saved, h.gd)
					for _, id := range gates {
						h.gd[h.sc.pos[id]] = sentinel
					}
				}
				events := rec.events
				h.Update()
				got := map[netlist.NodeID]bool{}
				if mode == 0 {
					for _, id := range gates {
						if p := h.sc.pos[id]; h.gd[p] == sentinel {
							h.gd[p] = saved[p]
						} else {
							got[id] = true
						}
					}
				} else {
					for _, sv := range h.logNodes {
						got[h.sc.node(int(sv.p))] = true
					}
				}

				where := fmt.Sprintf("%s/seed %d round %d mode %d", name, seed, round, mode)
				if h.Tmax() != after.Tmax {
					t.Fatalf("%s: Tmax %+v, fresh %+v", where, h.Tmax(), after.Tmax)
				}
				if len(want) == 0 {
					if rec.events != events || len(got) != 0 {
						t.Fatalf("%s: nothing pending, yet %d event(s) and %d node(s) re-evaluated",
							where, rec.events-events, len(got))
					}
				} else {
					if rec.events != events+1 {
						t.Fatalf("%s: %d inc.update events, want 1", where, rec.events-events)
					}
					if rec.dirty != len(want) || rec.frontier != changed {
						t.Fatalf("%s: dirty=%d frontier=%d, oracle %d and %d",
							where, rec.dirty, rec.frontier, len(want), changed)
					}
					for id := range want {
						if !got[id] {
							t.Fatalf("%s: node %s skipped", where, g.C.Nodes[id].Name)
						}
					}
					for id := range got {
						if !want[id] {
							t.Fatalf("%s: node %s re-evaluated outside the cone", where, g.C.Nodes[id].Name)
						}
					}
				}

				switch mode {
				case 1:
					h.Commit()
				case 2:
					if h.Rollback() != before.Tmax {
						t.Fatalf("%s: rollback Tmax %+v, want %+v", where, h.Tmax(), before.Tmax)
					}
				}
			}
			checkMatchesFresh(t, h, m, 3)
		}
	}
}

// checkBitsMatchFresh asserts with math.Float64bits that the engine's
// arrivals, gate delays, Tmax and Backward under seed (1, 0.5) equal a
// fresh taped Analyze and Result.Backward at the engine's sizes.
func checkBitsMatchFresh(t *testing.T, where string, h *Hier, m *delay.Model) {
	t.Helper()
	same := func(x, y stats.MV) bool {
		return math.Float64bits(x.Mu) == math.Float64bits(y.Mu) &&
			math.Float64bits(x.Var) == math.Float64bits(y.Var)
	}
	fresh := Analyze(m, h.Sizes(), true)
	if !same(h.Tmax(), fresh.Tmax) {
		t.Fatalf("%s: Tmax %+v, fresh %+v", where, h.Tmax(), fresh.Tmax)
	}
	for id := range fresh.Arrival {
		nid := netlist.NodeID(id)
		if !same(h.Arrival(nid), fresh.Arrival[id]) || !same(h.GateDelay(nid), fresh.GateDelay[id]) {
			t.Fatalf("%s: node %d arrival/delay %+v %+v, fresh %+v %+v", where, id,
				h.Arrival(nid), h.GateDelay(nid), fresh.Arrival[id], fresh.GateDelay[id])
		}
	}
	want := fresh.Backward(m, h.Sizes(), 1, 0.5)
	got := h.Backward(1, 0.5)
	for id := range want {
		if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
			t.Fatalf("%s: Backward[%d] = %v, fresh %v", where, id, got[id], want[id])
		}
	}
}

// TestHierSameLevelBatchUpdate dirties several gates of one level —
// of equal and of unequal fan-in, so Update folds them through
// forwardPair in every combination — before a single Update, outside
// any trial and inside trials that commit or roll back, and pins the
// engine bitwise against fresh flat sweeps after each Update, after
// each Rollback and after each Commit.
func TestHierSameLevelBatchUpdate(t *testing.T) {
	models := parallelTestModels(t)
	for _, name := range []string{"k2", "gen1200", "apex1"} {
		m := models[name]
		g := m.G
		rng := rand.New(rand.NewSource(31))
		h := NewHier(m, rampSizes(m), HierOptions{})
		// Levels with at least four gates, the widest first.
		var levels [][]netlist.NodeID
		for _, b := range g.Levels[1:] {
			if len(b) >= 4 {
				levels = append(levels, b)
			}
		}
		if len(levels) == 0 {
			t.Fatalf("%s: no level with four gates", name)
		}
		for round := 0; round < 24; round++ {
			bucket := levels[rng.Intn(len(levels))]
			mode := round % 3 // 0 plain, 1 trial+commit, 2 trial+rollback
			var before *Result
			if mode > 0 {
				before = Analyze(m, h.Sizes(), true)
				h.Trial()
			}
			for k := 2 + rng.Intn(6); k > 0; k-- {
				h.SetSize(bucket[rng.Intn(len(bucket))], 1+rng.Float64()*(m.Limit-1))
			}
			h.Update()
			where := fmt.Sprintf("%s/round %d mode %d", name, round, mode)
			checkBitsMatchFresh(t, where+" update", h, m)
			switch mode {
			case 1:
				h.Commit()
				checkBitsMatchFresh(t, where+" commit", h, m)
			case 2:
				h.Rollback()
				checkBitsMatchFresh(t, where+" rollback", h, m)
				if h.Tmax() != before.Tmax {
					t.Fatalf("%s: rollback Tmax %+v, pre-trial %+v", where, h.Tmax(), before.Tmax)
				}
			}
		}
	}
}
