package sizing

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/ssta"
)

func TestGreedyMeetsDeadline(t *testing.T) {
	m := treeModel(t)
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	fast, err := Size(m, Spec{Objective: MinMuPlusKSigma(3)})
	if err != nil {
		t.Fatal(err)
	}
	d := 0.5 * (fast.MuTmax + 3*fast.SigmaTmax + unit.Mu + 3*unit.Sigma())
	out, err := SizeGreedy(m, GreedyOptions{K: 3, Deadline: d})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Met {
		t.Fatalf("greedy missed feasible deadline %v: reached %v",
			d, out.MuTmax+3*out.SigmaTmax)
	}
	if q := out.MuTmax + 3*out.SigmaTmax; q > d+1e-9 {
		t.Errorf("quantile %v above deadline %v", q, d)
	}
	for _, id := range m.G.C.GateIDs() {
		if out.S[id] < 1-1e-9 || out.S[id] > m.Limit+1e-9 {
			t.Errorf("S out of bounds: %v", out.S[id])
		}
	}
}

func TestGreedyVsNLPArea(t *testing.T) {
	// The NLP must be at least as area-efficient as the greedy
	// heuristic at the same deadline (that is the point of solving
	// the problem exactly), and the greedy result should still be in
	// the same ballpark (within ~25%).
	m := treeModel(t)
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	fast, err := Size(m, Spec{Objective: MinMu()})
	if err != nil {
		t.Fatal(err)
	}
	d := 0.5 * (unit.Mu + fast.MuTmax)

	greedy, err := SizeGreedy(m, GreedyOptions{K: 0, Deadline: d, Step: 1.02})
	if err != nil {
		t.Fatal(err)
	}
	if !greedy.Met {
		t.Fatalf("greedy missed deadline")
	}
	nlpOut, err := Size(m, Spec{
		Objective:   MinArea(),
		Constraints: []Constraint{DelayLE(0, d)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nlpOut.SumS > greedy.SumS+1e-6 {
		t.Errorf("NLP area %v worse than greedy %v", nlpOut.SumS, greedy.SumS)
	}
	if greedy.SumS > 1.25*nlpOut.SumS {
		t.Errorf("greedy area %v too far above NLP %v", greedy.SumS, nlpOut.SumS)
	}
}

func TestGreedyInfeasibleDeadline(t *testing.T) {
	m := treeModel(t)
	out, err := SizeGreedy(m, GreedyOptions{K: 0, Deadline: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Met {
		t.Error("impossible deadline reported met")
	}
	// Everything should be driven to the limit trying.
	if out.SumS < 20.9 {
		t.Errorf("greedy gave up early: area %v", out.SumS)
	}
}

// zeroSigmaGreedy is the deterministic baseline: TILOS-style greedy
// sizing on mean delays, the model's sigma set to zero.
func zeroSigmaGreedy(t *testing.T, m *delay.Model, d float64) *GreedyResult {
	t.Helper()
	det := *m
	det.Sigma = delay.Zero{}
	out, err := SizeGreedy(&det, GreedyOptions{K: 0, Step: 1.01, Deadline: d})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGreedyZeroSigmaTree(t *testing.T) {
	// The tree's fastest deterministic delay is 4.853: every deadline
	// down to 4.9 is met, at an area that grows as D tightens and
	// within 1% of the exact area-min NLP on the same sigma = 0 model,
	// and 4.8 is not.
	m := treeModel(t)
	det := *m
	det.Sigma = delay.Zero{}
	prev := 0.0
	for _, d := range []float64{6.5, 6.0, 5.5, 5.0, 4.9} {
		out := zeroSigmaGreedy(t, m, d)
		if !out.Met {
			t.Fatalf("D = %v: missed, reached %v", d, out.MuTmax)
		}
		if delay := ssta.DetAnalyze(m, out.S).Tmax; delay > d {
			t.Errorf("D = %v: deterministic delay %v", d, delay)
		}
		if out.SumS <= prev {
			t.Errorf("D = %v: area %v not above the looser deadline's %v", d, out.SumS, prev)
		}
		prev = out.SumS
		exact, err := Size(&det, Spec{
			Objective:   MinArea(),
			Constraints: []Constraint{DelayLE(0, d)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if exact.SumS > out.SumS+1e-6 || out.SumS > 1.01*exact.SumS {
			t.Errorf("D = %v: greedy area %v vs exact %v", d, out.SumS, exact.SumS)
		}
	}
	if out := zeroSigmaGreedy(t, m, 4.8); out.Met {
		t.Errorf("D = 4.8 below the fastest delay reported met at %v", out.MuTmax)
	}
}

func TestStatisticalBeatsDeterministicOnYieldMetric(t *testing.T) {
	// The paper's core claim: at a deadline D, deterministic sizing
	// meets D in the mean but ignores sigma; statistical sizing under
	// mu + 3*sigma <= D actually guarantees the 99.8% quantile. The
	// deterministic result's own mu+3sigma must overshoot D.
	m := treeModel(t)
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	fast, err := Size(m, Spec{Objective: MinMuPlusKSigma(3)})
	if err != nil {
		t.Fatal(err)
	}
	d := 0.5 * (fast.MuTmax + 3*fast.SigmaTmax + unit.Mu)

	// Statistical: guarantee the 99.8% quantile.
	stat, err := Size(m, Spec{
		Objective:   MinArea(),
		Constraints: []Constraint{DelayLE(3, d)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if q := stat.MuTmax + 3*stat.SigmaTmax; q > d+1e-3 {
		t.Fatalf("statistical sizing missed its quantile target: %v > %v", q, d)
	}

	// Deterministic baseline at the same deadline on mean delay.
	det := zeroSigmaGreedy(t, m, d)
	r := ssta.Analyze(m, det.S, false).Tmax
	if q := r.Mu + 3*r.Sigma(); q <= d {
		t.Errorf("deterministic sizing accidentally met the quantile: %v <= %v "+
			"(expected overshoot: it has no sigma handle)", q, d)
	}
}

func TestGreedyOptionValidation(t *testing.T) {
	m := treeModel(t)
	if _, err := SizeGreedy(m, GreedyOptions{K: 0, Deadline: 0}); err == nil {
		t.Error("zero deadline accepted")
	}
	if _, err := SizeGreedy(m, GreedyOptions{K: 0, Deadline: 5, Step: 0.9}); err == nil {
		t.Error("shrinking step accepted")
	}
}

// rejects runs call and asserts it returns an error — neither a
// result nor a panic.
func rejects(t *testing.T, call func() error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked instead of returning an error: %v", r)
		}
	}()
	if err := call(); err == nil {
		t.Fatal("accepted")
	}
}

// TestGreedyRejectsBadInputs pins the greedy driver's boundary: each
// option below used to panic deep in the engine or the objective, or
// to run to completion on a target it could never meet or rank by.
func TestGreedyRejectsBadInputs(t *testing.T) {
	m := treeModel(t)
	n := len(m.G.C.Nodes)
	weights := func(edit func(w []float64) []float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return edit(w)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, opt := range map[string]GreedyOptions{
		"weights-short":    {K: 3, Deadline: 5, Weights: weights(func(w []float64) []float64 { return w[:n-1] })},
		"weights-long":     {K: 3, Deadline: 5, Weights: weights(func(w []float64) []float64 { return append(w, 1) })},
		"weights-nan":      {K: 3, Deadline: 5, Weights: weights(func(w []float64) []float64 { w[n-1] = nan; return w })},
		"weights-inf":      {K: 3, Deadline: 5, Weights: weights(func(w []float64) []float64 { w[n-1] = inf; return w })},
		"weights-negative": {K: 3, Deadline: 5, Weights: weights(func(w []float64) []float64 { w[n-1] = -1; return w })},
		"step-nan":         {K: 3, Deadline: 5, Step: nan},
		"step-inf":         {K: 3, Deadline: 5, Step: inf},
		"k-nan":            {K: nan, Deadline: 5},
		"k-inf":            {K: inf, Deadline: 5},
		"deadline-nan":     {K: 3, Deadline: nan},
		"deadline-inf":     {K: 3, Deadline: inf},
	} {
		t.Run(name, func(t *testing.T) {
			rejects(t, func() error {
				_, err := SizeGreedy(m, opt)
				return err
			})
		})
	}
	t.Run("limit-nan", func(t *testing.T) {
		bad := *m
		bad.Limit = nan
		rejects(t, func() error {
			_, err := SizeGreedy(&bad, GreedyOptions{K: 3, Deadline: 5})
			return err
		})
	})
}
