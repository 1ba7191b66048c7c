package sizing

import (
	"context"
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

// TestGreedyStepAllocFree replicates one greedy sensitivity step — the
// incremental gradient, the rank scan, the bump, SetSize — and asserts
// the warm steady state allocates nothing per step.
func TestGreedyStepAllocFree(t *testing.T) {
	m := genModel(t, 300)
	gates := m.G.C.GateIDs()
	inc := ssta.NewHier(m, m.UnitSizes(), ssta.HierOptions{Workers: 1})
	doStep := func() {
		_, grad := inc.GradMuPlusKSigma(3)
		S := inc.Sizes()
		best := -1
		var bestScore float64
		for _, id := range gates {
			if S[id] >= m.Limit-1e-12 {
				continue
			}
			if grad[id] < bestScore {
				bestScore = grad[id]
				best = int(id)
			}
		}
		if best < 0 {
			return
		}
		s := S[best] * 1.05
		if s > m.Limit {
			s = m.Limit
		}
		inc.SetSize(netlist.NodeID(best), s)
	}
	// Warm well past the transient: the per-level dirty buckets and the
	// undo-free slabs stop growing once the engine has seen the widest
	// cones the trajectory visits.
	for i := 0; i < 400; i++ {
		doStep()
	}
	allocs := testing.AllocsPerRun(100, doStep)
	if allocs != 0 {
		t.Fatalf("greedy step allocates %.2f per step in steady state, want 0", allocs)
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
