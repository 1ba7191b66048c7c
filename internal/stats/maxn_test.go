package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExactMaxNTwoOperands(t *testing.T) {
	// For two operands the fold IS Clark's exact result (up to the
	// normality of the inputs, which holds here), so quadrature and
	// closed form must agree to integration precision.
	cases := [][2]MV{
		{{0, 1}, {0, 1}},
		{{5, 4}, {6, 1}},
		{{10, 0.25}, {9.5, 2.25}},
		{{-3, 9}, {2, 0.01}},
	}
	for _, c := range cases {
		exact := ExactMaxN(c[:])
		clark := Max2(c[0], c[1])
		if !close(exact.Mu, clark.Mu, 1e-9) {
			t.Errorf("case %+v: exact mu %v vs Clark %v", c, exact.Mu, clark.Mu)
		}
		if !close(exact.Var, clark.Var, 1e-8) {
			t.Errorf("case %+v: exact var %v vs Clark %v", c, exact.Var, clark.Var)
		}
	}
}

func TestExactMaxNSingleAndPoint(t *testing.T) {
	if got := ExactMaxN([]MV{{3, 2}}); got != (MV{3, 2}) {
		t.Errorf("single = %+v", got)
	}
	if got := ExactMaxN([]MV{{3, 0}, {5, 0}, {4, 0}}); got.Mu != 5 || got.Var != 0 {
		t.Errorf("points = %+v", got)
	}
}

func TestExactMaxNPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	ExactMaxN(nil)
}

func TestExactMaxNAgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := [][]MV{
		{{0, 1}, {0, 1}, {0, 1}},
		{{1, 0.5}, {1.5, 1}, {0.5, 2}, {1.2, 0.8}},
		{{10, 1}, {9, 1}, {8, 1}, {7, 1}, {6, 1}},
		{{0, 1}, {0.1, 0}, {0, 4}}, // one deterministic operand
	}
	for _, ms := range cases {
		exact := ExactMaxN(ms)
		const n = 400000
		var mean, m2 float64
		for i := 0; i < n; i++ {
			best := math.Inf(-1)
			for _, m := range ms {
				x := m.Mu + math.Sqrt(m.Var)*rng.NormFloat64()
				if x > best {
					best = x
				}
			}
			d := best - mean
			mean += d / float64(i+1)
			m2 += d * (best - mean)
		}
		mcVar := m2 / n
		if !close(exact.Mu, mean, 8e-3) {
			t.Errorf("case %v: exact mu %v vs MC %v", ms, exact.Mu, mean)
		}
		if math.Abs(math.Sqrt(exact.Var)-math.Sqrt(mcVar)) > 8e-3*math.Max(1, math.Sqrt(mcVar)) {
			t.Errorf("case %v: exact sigma %v vs MC %v",
				ms, math.Sqrt(exact.Var), math.Sqrt(mcVar))
		}
	}
}

func TestFoldBiasSmallAndPessimistic(t *testing.T) {
	// The paper folds multi-input maxima two at a time; quantify the
	// bias on symmetric operands (worst case). The fold's mean error
	// should be under ~2% of sigma and biased high (pessimistic),
	// which is the safe direction for timing.
	ms := []MV{{0, 1}, {0, 1}, {0, 1}, {0, 1}}
	muBias, sigmaBias := FoldBias(ms)
	if muBias < 0 {
		t.Errorf("fold mean bias %v is optimistic", muBias)
	}
	if muBias > 0.05 {
		t.Errorf("fold mean bias %v too large", muBias)
	}
	if math.Abs(sigmaBias) > 0.05 {
		t.Errorf("fold sigma bias %v too large", sigmaBias)
	}
	// Dominated case: no bias at all.
	muBias, sigmaBias = FoldBias([]MV{{0, 1}, {10, 1}, {-5, 1}})
	if math.Abs(muBias) > 1e-6 || math.Abs(sigmaBias) > 1e-6 {
		t.Errorf("dominated fold bias %v %v", muBias, sigmaBias)
	}
}

func TestExactMaxNMonotoneInOperands(t *testing.T) {
	// Adding an operand can only increase the mean of the max.
	f := func(m1, v1, m2, v2, m3, v3 float64) bool {
		a := MV{math.Mod(m1, 10), 0.1 + math.Abs(math.Mod(v1, 4))}
		b := MV{math.Mod(m2, 10), 0.1 + math.Abs(math.Mod(v2, 4))}
		c := MV{math.Mod(m3, 10), 0.1 + math.Abs(math.Mod(v3, 4))}
		two := ExactMaxN([]MV{a, b})
		three := ExactMaxN([]MV{a, b, c})
		return three.Mu >= two.Mu-1e-9
	}
	cfg := &quick.Config{MaxCount: 25} // quadrature is not free
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
