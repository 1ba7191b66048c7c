package sizing

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/ssta"
)

// greedyDeadline picks a deadline halfway between the unit-size and
// all-at-limit quantiles, so greedy has real work but can finish.
func greedyDeadline(t *testing.T, m *delay.Model, k float64) float64 {
	t.Helper()
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	fast := m.UnitSizes()
	for _, id := range m.G.C.GateIDs() {
		fast[id] = m.Limit
	}
	lim := ssta.Analyze(m, fast, false).Tmax
	return 0.5 * (unit.Mu + k*unit.Sigma() + lim.Mu + k*lim.Sigma())
}

// TestGreedyWeightedImprovesWeightedCost asserts that ranking by
// grad/w steers bumps away from expensive gates: at the same deadline,
// the weighted run's weighted area must not exceed the unweighted
// run's.
func TestGreedyWeightedImprovesWeightedCost(t *testing.T) {
	m := genModel(t, 300)
	w, err := power.Weights(m)
	if err != nil {
		t.Fatal(err)
	}
	d := greedyDeadline(t, m, 3)
	plain, err := SizeGreedy(m, GreedyOptions{K: 3, Deadline: d})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := SizeGreedy(m, GreedyOptions{K: 3, Deadline: d, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Met || !weighted.Met {
		t.Fatalf("deadline %v not met: plain %v weighted %v", d, plain.Met, weighted.Met)
	}
	cost := func(S []float64) float64 {
		var c float64
		for _, id := range m.G.C.GateIDs() {
			c += w[id] * S[id]
		}
		return c
	}
	cp, cw := cost(plain.S), cost(weighted.S)
	if cw > cp+1e-9 {
		t.Fatalf("weighted greedy cost %v exceeds unweighted %v", cw, cp)
	}
	t.Logf("weighted cost %.4f vs unweighted %.4f (%.1f%% saved)", cw, cp, 100*(1-cw/cp))
}

// TestGreedyFromSpecThreadsWeights asserts the spec-to-greedy bridge
// (the NumericalFailure fallback path) carries the deadline, workers
// and objective weights, so a weighted spec degrades to weighted
// greedy — and rejects specs without a mu+Ksigma deadline.
func TestGreedyFromSpecThreadsWeights(t *testing.T) {
	m := genModel(t, 300)
	w, err := power.Weights(m)
	if err != nil {
		t.Fatal(err)
	}
	d := greedyDeadline(t, m, 3)
	spec := Spec{
		Objective:   MinWeightedArea(),
		Weights:     w,
		Constraints: []Constraint{MuEQ(d - 1), DelayLE(3, d)},
		Workers:     1,
	}
	opt, ok := GreedyFromSpec(spec)
	if !ok {
		t.Fatal("spec with a mu+Ksigma deadline rejected")
	}
	if opt.K != 3 || opt.Deadline != d || opt.Workers != 1 {
		t.Fatalf("options not threaded: %+v", opt)
	}
	for i := range w {
		if opt.Weights[i] != w[i] {
			t.Fatalf("weights not threaded at %d", i)
		}
	}
	fromSpec, err := SizeGreedy(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SizeGreedy(m, GreedyOptions{K: 3, Deadline: d, Workers: 1, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	for id := range direct.S {
		if fromSpec.S[id] != direct.S[id] {
			t.Fatalf("spec-derived run diverged at S[%d]: %v != %v",
				id, fromSpec.S[id], direct.S[id])
		}
	}
	if _, ok := GreedyFromSpec(Spec{Constraints: []Constraint{MuEQ(d)}}); ok {
		t.Fatal("spec without a mu+Ksigma deadline accepted")
	}
}

// TestGreedyStepAllocFree drives the sizer's own sensitivity step —
// the positional gradient, the rank scan, the bump, SetSize — and
// asserts the warm steady state allocates nothing per step.
func TestGreedyStepAllocFree(t *testing.T) {
	m := genModel(t, 300)
	opt := GreedyOptions{K: 3, Deadline: 0.01, Step: 1.05}
	run := newGreedyRun(m, &opt, nil)
	i := 0
	doStep := func() {
		run.step(i)
		i++
	}
	// Warm well past the transient: the per-level dirty buckets and the
	// undo-free slabs stop growing once the engine has seen the widest
	// cones the trajectory visits.
	for i < 400 {
		doStep()
	}
	allocs := testing.AllocsPerRun(100, doStep)
	if allocs != 0 {
		t.Fatalf("greedy step allocates %.2f per step in steady state, want 0", allocs)
	}
}

// gen1200Model is the 1200-gate generated netlist internal/ssta's
// tests call gen1200.
func gen1200Model(t testing.TB) *delay.Model {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{
		Name: "par1200", Gates: 1200, Inputs: 48, Outputs: 12,
		Depth: 18, MaxFanin: 4, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return delay.MustBind(netlist.MustCompile(c), delay.Default())
}

// TestGreedyChoicesPinned pins the gates a 300-step greedy run on
// gen1200 bumps, unweighted and with power weights: an FNV-1a hash of
// the chosen NodeIDs (little-endian uint32 each) and the bits of the
// final SumS, recorded from the NodeID-order scan the positional pick
// replaced. The deadline is out of reach, so every step bumps a gate;
// the driven steps and SizeGreedy must end at the same sizes.
func TestGreedyChoicesPinned(t *testing.T) {
	m := gen1200Model(t)
	pw, err := power.Weights(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		w          []float64
		hash, sumS uint64
	}{
		{"unweighted", nil, 0xcda1fee68b9e7281, 0x4093026592c98bfd},
		{"power", pw, 0xbd9dee466183488a, 0x40931ae6a4434ef4},
	} {
		opt := GreedyOptions{K: 3, Deadline: 0.01, Step: 1.05, MaxSteps: 300, Weights: tc.w}
		run := newGreedyRun(m, &opt, nil)
		h := fnv.New64a()
		var buf [4]byte
		for i := 0; i < opt.MaxSteps; i++ {
			id, _ := run.step(i)
			if id < 0 {
				t.Fatalf("%s: step %d bumped nothing", tc.name, i)
			}
			binary.LittleEndian.PutUint32(buf[:], uint32(id))
			h.Write(buf[:])
		}
		res, err := SizeGreedy(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		for id, s := range run.inc.Sizes() {
			if math.Float64bits(res.S[id]) != math.Float64bits(s) {
				t.Fatalf("%s: SizeGreedy S[%d] = %v, driven steps %v", tc.name, id, res.S[id], s)
			}
		}
		if got := h.Sum64(); got != tc.hash {
			t.Errorf("%s: chosen-gate hash %#x, want %#x", tc.name, got, tc.hash)
		}
		if got := math.Float64bits(res.SumS); got != tc.sumS {
			t.Errorf("%s: SumS bits %#x (%v), want %#x", tc.name, got, res.SumS, tc.sumS)
		}
	}
}

// twinChainsModel builds two inverter chains whose tail gates tie
// exactly: chain h (declared first) is b -> h0 -> h1 -> h2 and chain g
// is a -> g0 -> g1, and input a arrives exactly when h0's output does,
// so g0 and g1 repeat h1's and h2's float program operand for operand.
// The twins sit a level apart, so sweep position order and NodeID
// order disagree on each pair: g0 and g1 precede h1 and h2 in the
// sweep but follow them in NodeID order.
func twinChainsModel(t *testing.T) *delay.Model {
	t.Helper()
	c := netlist.New("twins")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range [][2]string{{"h0", "b"}, {"h1", "h0"}, {"h2", "h1"}, {"g0", "a"}, {"g1", "g0"}} {
		if _, err := c.AddGate(g[0], "inv", g[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []string{"h2", "g1"} {
		if err := c.MarkOutput(o); err != nil {
			t.Fatal(err)
		}
	}
	m := delay.MustBind(netlist.MustCompile(c), delay.Default())
	a, _ := c.Lookup("a")
	h0, _ := c.Lookup("h0")
	m.Arrival[a] = ssta.Analyze(m, m.UnitSizes(), false).Arrival[h0]
	return m
}

// TestGreedyTieGoesToLowestNodeID pins the pick's tie-break where
// sweep position order and NodeID order disagree: h2 and g1 score
// exactly the same (asserted), and the weights price every other gate
// out, so the first bump must go to h2, the lower NodeID, although g1
// comes first in the sweep.
func TestGreedyTieGoesToLowestNodeID(t *testing.T) {
	m := twinChainsModel(t)
	id := func(name string) netlist.NodeID {
		n, ok := m.G.C.Lookup(name)
		if !ok {
			t.Fatalf("no node %q", name)
		}
		return n
	}
	h2, g1 := id("h2"), id("g1")
	h := ssta.NewHier(m, m.UnitSizes(), ssta.HierOptions{})
	order, _ := h.SweepOrder()
	pos := func(n netlist.NodeID) int { return slices.Index(order, int32(n)) }
	if !(h2 < g1 && pos(g1) < pos(h2)) {
		t.Fatalf("fixture: h2 (id %d, position %d) and g1 (id %d, position %d) do not disagree", h2, pos(h2), g1, pos(g1))
	}
	_, grad := h.GradMuPlusKSigma(0)
	if grad[h2] >= 0 || math.Float64bits(grad[h2]) != math.Float64bits(grad[g1]) {
		t.Fatalf("fixture: grad[h2] = %v and grad[g1] = %v, want one negative tie", grad[h2], grad[g1])
	}
	w := make([]float64, len(m.G.C.Nodes))
	for i := range w {
		w[i] = 1e9
	}
	w[h2], w[g1] = 1, 1
	opt := GreedyOptions{K: 0, Deadline: 0.01, Step: 1.05, MaxSteps: 1, Weights: w}
	if got, _ := newGreedyRun(m, &opt, nil).step(0); got != h2 {
		t.Fatalf("step bumped node %d, want h2 (%d)", got, h2)
	}
	res, err := SizeGreedy(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.S[h2] != 1.05 || res.S[g1] != 1 {
		t.Fatalf("SizeGreedy sizes h2 %v, g1 %v; want 1.05 and 1", res.S[h2], res.S[g1])
	}
}

// TestGreedyReportMatchesAnalyze: the greedy result's moments are the
// warm engine's; they equal a fresh Analyze at the returned sizes bit
// for bit however the loop ends: at MaxSteps with the last bump still
// pending in the engine, on meeting the deadline, or cancelled before
// the first step.
func TestGreedyReportMatchesAnalyze(t *testing.T) {
	m := genModel(t, 300)
	d := greedyDeadline(t, m, 3)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		opt   GreedyOptions
		steps int // -1: any
	}{
		{"max steps", context.Background(), GreedyOptions{K: 3, Deadline: 0.01 * d, MaxSteps: 7}, 7},
		{"deadline met", context.Background(), GreedyOptions{K: 3, Deadline: d}, -1},
		{"cancelled", cancelled, GreedyOptions{K: 3, Deadline: d}, 0},
	} {
		res, err := SizeGreedyCtx(tc.ctx, m, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.steps >= 0 && res.Steps != tc.steps {
			t.Fatalf("%s: %d steps, want %d", tc.name, res.Steps, tc.steps)
		}
		r := ssta.Analyze(m, res.S, false).Tmax
		if res.MuTmax != r.Mu || res.SigmaTmax != r.Sigma() {
			t.Errorf("%s: reported (%v, %v), fresh Analyze (%v, %v)", tc.name, res.MuTmax, res.SigmaTmax, r.Mu, r.Sigma())
		}
	}
}
