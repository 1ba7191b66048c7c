package ssta

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// hierBlockTargets spans the degenerate cut (one node per block), a
// small realistic cut and the whole-graph-per-level cut.
func hierBlockTargets(m *delay.Model) []int {
	return []int{1, 64, len(m.G.C.Nodes)}
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
	if phiH != phiF {
		t.Fatalf("phi diverged: engine %v fresh %v", phiH, phiF)
	}
	gradF := fresh.Backward(m, S, sMu, sVar)
	for id := range gradF {
		if gradH[id] != gradF[id] {
			t.Fatalf("grad[%d] diverged: engine %v fresh %v", id, gradH[id], gradF[id])
		}
	}
}

// TestHierInitialSweepBitIdentical pins the construction-time blocked
// forward pass against the flat sweeps for every circuit, worker
// count and block target — including the dataflow-scheduler paths.
func TestHierInitialSweepBitIdentical(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		want := Analyze(m, S, true)
		for _, w := range []int{1, 4} {
			for _, target := range hierBlockTargets(m) {
				h := NewHier(m, S, HierOptions{BlockTarget: target, Workers: w})
				if err := h.Partition().Check(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if h.Tmax() != want.Tmax {
					t.Fatalf("%s w=%d target=%d: Tmax %+v != flat %+v",
						name, w, target, h.Tmax(), want.Tmax)
				}
				for id := range want.Arrival {
					if h.Arrival(netlist.NodeID(id)) != want.Arrival[id] {
						t.Fatalf("%s w=%d target=%d: Arrival[%d] differs", name, w, target, id)
					}
				}
			}
		}
	}
}

// TestHierMatchesFlatFuzz drives the engine with random size bursts,
// no-op updates and full resweeps for worker counts {1, 4} crossed
// with block targets {1, 64, whole graph}, asserting bit-identity
// against fresh flat sweeps throughout — early cutoff included, since
// most nodes stay clean across the small bursts.
func TestHierMatchesFlatFuzz(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		for _, workers := range []int{1, 4} {
			for _, target := range hierBlockTargets(m) {
				t.Run(fmt.Sprintf("%s/j%d/t%d", name, workers, target), func(t *testing.T) {
					rng := rand.New(rand.NewSource(99))
					gates := m.G.C.GateIDs()
					h := NewHier(m, m.UnitSizes(), HierOptions{BlockTarget: target, Workers: workers})
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
						case 2: // full blocked resweep with marks pending
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
}

// TestHierCriticalityMatches pins the blocked adjoint's dmu byproduct
// against the flat criticality sweep.
func TestHierCriticalityMatches(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		want := CriticalityWorkers(m, S, 1)
		for _, w := range []int{1, 4} {
			h := NewHier(m, S, HierOptions{BlockTarget: 64, Workers: w})
			got := h.Criticality()
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("%s w=%d: criticality[%d] = %v, want %v", name, w, id, got[id], want[id])
				}
			}
		}
	}
}

// TestHierBackwardSeeds sweeps the adjoint seeds the objective paths
// use, pinning the blocked backward pass against Result.Backward.
func TestHierBackwardSeeds(t *testing.T) {
	seeds := [][2]float64{{1, 0}, {1, 0.35}, {0, 1}}
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		r := Analyze(m, S, true)
		h := NewHier(m, S, HierOptions{BlockTarget: 64, Workers: 4})
		for _, sd := range seeds {
			want := r.Backward(m, S, sd[0], sd[1])
			got := h.Backward(sd[0], sd[1])
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("%s seed=%v: grad[%d] = %v, want %v", name, sd, id, got[id], want[id])
				}
			}
		}
	}
}

// TestHierMacroReplayCounts asserts the dirty cone is node-granular
// on a blocked engine: a single-gate bump on the big generated netlist
// re-evaluates fewer than half its nodes, and a no-op Update emits
// nothing.
func TestHierMacroReplayCounts(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	sink := &eventSink{}
	h := NewHier(m, m.UnitSizes(), HierOptions{BlockTarget: 16, Workers: 1, Recorder: sink})
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
// trace sinks with 1 and 4 workers and asserts the trace bytes are
// identical — the worker-invariance contract of the hier events.
func TestHierTraceByteIdentical(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	run := func(workers int) []byte {
		var buf bytes.Buffer
		tw := telemetry.NewTraceWriter(&buf)
		h := NewHier(m, m.UnitSizes(), HierOptions{BlockTarget: 32, Workers: workers, Recorder: tw})
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

// TestHierSteadyStateAllocFree asserts the serial engine's warm loop
// on a blocked configuration — SetSize, Update, adjoint — performs
// zero heap allocations per step.
func TestHierSteadyStateAllocFree(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	h := NewHier(m, m.UnitSizes(), HierOptions{BlockTarget: 64, Workers: 1})
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
		t.Fatalf("steady-state SetSize+Update+Backward allocates %.1f per step, want 0", allocs)
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
