// Package repro's root benchmark suite regenerates every table of the
// paper's evaluation and measures the design decisions DESIGN.md calls
// out. One benchmark per evaluation artifact:
//
//	BenchmarkTable1Apex1 / Apex2 / K2   paper Table 1, per circuit
//	BenchmarkTable2                     paper Table 2
//	BenchmarkTable3                     paper Table 3
//	BenchmarkYield                      section 4 yield claim
//
// plus operator microbenchmarks and the ablations:
//
//	BenchmarkAblationMaxAnalyticVsSampled  analytic eq 10/12 vs the
//	    sampling approach of refs [1][2] at equal accuracy
//	BenchmarkAblationSSTAVsMonteCarlo      one analytic sweep vs a
//	    Monte Carlo run of comparable moment accuracy (the paper's
//	    argument that MC is impractical inside an optimizer loop)
//	BenchmarkAblationReducedVsFullSpace    formulation cost comparison
//	BenchmarkAblationNewtonVsLBFGS         inner-solver comparison on
//	    the full-space problem (the value of exact second derivatives)
//	BenchmarkAblationBilinearVsDivision    eq 15 vs eq 14 delay form
//	BenchmarkAblationAdjointVsFDGradient   exact adjoint gradient vs
//	    finite differences (the paper's case for analytic derivatives)
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/sizing"
	"repro/internal/ssta"
	"repro/internal/stats"
)

// --- Paper tables ---------------------------------------------------

func benchTable1(b *testing.B, idx int) {
	cases := []bench.CircuitCase{bench.Table1Circuits()[idx]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable1(cases, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Apex1(b *testing.B) { benchTable1(b, 0) }
func BenchmarkTable1Apex2(b *testing.B) { benchTable1(b, 1) }
func BenchmarkTable1K2(b *testing.B)    { benchTable1(b, 2) }

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkYield(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunYield(50000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Operator microbenchmarks ----------------------------------------

var sinkMV stats.MV

func BenchmarkStochMax2(b *testing.B) {
	a := stats.MV{Mu: 5, Var: 1.2}
	c := stats.MV{Mu: 5.5, Var: 0.8}
	for i := 0; i < b.N; i++ {
		sinkMV = stats.Max2(a, c)
	}
}

var sinkJac stats.Jac2x4

func BenchmarkStochMax2Jac(b *testing.B) {
	a := stats.MV{Mu: 5, Var: 1.2}
	c := stats.MV{Mu: 5.5, Var: 0.8}
	for i := 0; i < b.N; i++ {
		sinkMV, sinkJac = stats.Max2Jac(a, c)
	}
}

var sinkStep stats.Step

// BenchmarkStochMax2StepInto times the kernel the taped sweeps run:
// one Clark max writing its compact 48-byte tape step in place, on
// BenchmarkStochMax2Jac's operands, without the expansion into a
// Jac2x4 that Max2Jac adds.
func BenchmarkStochMax2StepInto(b *testing.B) {
	a := stats.MV{Mu: 5, Var: 1.2}
	c := stats.MV{Mu: 5.5, Var: 0.8}
	for i := 0; i < b.N; i++ {
		sinkMV = stats.Max2StepInto(a, c, &sinkStep)
	}
}

// max2MixShares is the share of Clark maxes whose |α|/√2 falls in each
// branch of the erfc core — [0, 0.84375), [0.84375, 1.25),
// [1.25, 1/0.35), [1/0.35, 6), [6, 28) — measured over a table1 pass,
// in pairs out of 4,096. No table1 max reaches 28.
var max2MixShares = [...]struct {
	lo, hi float64
	n      int
}{
	{0, 0.84375, 2384}, // 58.2%
	{0.84375, 1.25, 520},
	{1.25, 1 / 0.35, 881},
	{1 / 0.35, 6, 287},
	{6, 28, 24}, // 0.6%
}

// max2Mix returns a fixed, shuffled table of 4,096 operand pairs whose
// α lands in the erfc core's branches at table1's shares, with both
// signs of α and variances spread over four decades.
func max2Mix() [][2]stats.MV {
	rng := rand.New(rand.NewSource(7))
	var ps [][2]stats.MV
	for _, sh := range max2MixShares {
		for i := 0; i < sh.n; i++ {
			alpha := (sh.lo + (sh.hi-sh.lo)*rng.Float64()) * math.Sqrt2
			if i&1 == 1 {
				alpha = -alpha
			}
			va, vb := math.Pow(10, -2+4*rng.Float64()), math.Pow(10, -2+4*rng.Float64())
			base := 10 * rng.Float64()
			ps = append(ps, [2]stats.MV{{Mu: base + alpha*math.Sqrt(va+vb), Var: va}, {Mu: base, Var: vb}})
		}
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

func BenchmarkStochMax2Mix(b *testing.B) {
	ps := max2Mix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &ps[i&(len(ps)-1)]
		sinkMV = stats.Max2(p[0], p[1])
	}
}

func BenchmarkStochMax2JacMix(b *testing.B) {
	ps := max2Mix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &ps[i&(len(ps)-1)]
		sinkMV, sinkJac = stats.Max2Jac(p[0], p[1])
	}
}

func BenchmarkStochMax2JacIntoMix(b *testing.B) {
	ps := max2Mix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &ps[i&(len(ps)-1)]
		sinkMV = stats.Max2JacInto(p[0], p[1], &sinkJac)
	}
}

var sinkHess [4][4]float64

func BenchmarkStochMax2Hessians(b *testing.B) {
	a := stats.MV{Mu: 5, Var: 1.2}
	c := stats.MV{Mu: 5.5, Var: 0.8}
	for i := 0; i < b.N; i++ {
		sinkHess, _ = stats.Max2Hessians(a, c)
	}
}

func sstaModel(b *testing.B, mk func() *netlist.Circuit) *delay.Model {
	b.Helper()
	g, err := netlist.Compile(mk())
	if err != nil {
		b.Fatal(err)
	}
	m, err := delay.Bind(g, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

var sinkF float64

func BenchmarkSSTASweepApex1(b *testing.B) {
	m := sstaModel(b, netlist.Apex1Like)
	S := m.UnitSizes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = ssta.Analyze(m, S, false).Tmax.Mu
	}
}

func BenchmarkSSTASweepK2(b *testing.B) {
	m := sstaModel(b, netlist.K2Like)
	S := m.UnitSizes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = ssta.Analyze(m, S, false).Tmax.Mu
	}
}

func BenchmarkSSTAGradientK2(b *testing.B) {
	// Full objective + exact gradient: one taped sweep plus one
	// adjoint sweep — the inner-loop cost of the reduced formulation.
	m := sstaModel(b, netlist.K2Like)
	S := m.UnitSizes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi, grad := ssta.GradMuPlusKSigma(m, S, 3)
		sinkF = phi + grad[len(grad)-1]
	}
}

// --- Parallel engine --------------------------------------------------

// genBenchModel builds a generated circuit of the given size for the
// serial-vs-parallel comparisons (the built-ins top out near 1000
// cells; the acceptance target is a >= 1000-gate netlist).
func genBenchModel(b *testing.B, gates int) *delay.Model {
	b.Helper()
	c, err := netlist.Generate(netlist.GenSpec{
		Name: "bench", Gates: gates, Inputs: 64, Outputs: 16,
		Depth: 24, MaxFanin: 4, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sstaModel(b, func() *netlist.Circuit { return c })
}

var benchWorkerCounts = func() []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range []int{1, 2, 4, runtime.NumCPU()} {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}()

// BenchmarkParallelMonteCarlo compares sharded Monte Carlo at several
// worker counts; every worker count draws the identical sample set.
func BenchmarkParallelMonteCarlo(b *testing.B) {
	m := genBenchModel(b, 1000)
	S := m.UnitSizes()
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("j%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := montecarlo.Run(m, S, montecarlo.Options{
					Samples: 20000, Seed: 1, Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				sinkF = r.Mu
			}
		})
	}
}

// --- Ablations --------------------------------------------------------

func BenchmarkAblationMaxAnalyticVsSampled(b *testing.B) {
	a := stats.MV{Mu: 5, Var: 1.2}
	c := stats.MV{Mu: 5.5, Var: 0.8}
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkMV = stats.Max2(a, c)
		}
	})
	// 10k samples gives moment noise around 1%, far coarser than the
	// analytic expressions; even so it is orders of magnitude slower.
	b.Run("sampled-10k", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			sinkMV = stats.SampleMax2(a, c, 10000, rng)
		}
	})
}

func BenchmarkAblationSSTAVsMonteCarlo(b *testing.B) {
	m := sstaModel(b, netlist.Apex2Like)
	S := m.UnitSizes()
	b.Run("analytic-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF = ssta.Analyze(m, S, false).Tmax.Mu
		}
	})
	b.Run("montecarlo-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := montecarlo.Run(m, S, montecarlo.Options{Samples: 10000, Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			sinkF = r.Mu
		}
	})
}

func BenchmarkAblationReducedVsFullSpace(b *testing.B) {
	run := func(b *testing.B, spec sizing.Spec) {
		b.Helper()
		g := netlist.MustCompile(netlist.Tree7())
		m := delay.MustBind(g, delay.PaperTree())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := sizing.Size(m, spec)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = out.MuTmax
		}
	}
	b.Run("reduced", func(b *testing.B) {
		run(b, sizing.Spec{Objective: sizing.MinMuPlusKSigma(3)})
	})
	b.Run("fullspace-newton", func(b *testing.B) {
		run(b, sizing.Spec{
			Objective:   sizing.MinMuPlusKSigma(3),
			Formulation: sizing.FullSpace,
			Solver:      nlp.Options{Method: nlp.NewtonCG},
		})
	})
}

func BenchmarkAblationNewtonVsLBFGS(b *testing.B) {
	run := func(b *testing.B, method nlp.Method) {
		b.Helper()
		g := netlist.MustCompile(netlist.Fig2Example())
		m := delay.MustBind(g, delay.Default())
		spec := sizing.Spec{
			Objective:   sizing.MinMuPlusKSigma(3),
			Formulation: sizing.FullSpace,
			Solver:      nlp.Options{Method: method, MaxInner: 3000},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := sizing.Size(m, spec)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = out.MuTmax
		}
	}
	b.Run("newton-cg", func(b *testing.B) { run(b, nlp.NewtonCG) })
	b.Run("lbfgs", func(b *testing.B) { run(b, nlp.LBFGS) })
}

func BenchmarkAblationBilinearVsDivision(b *testing.B) {
	run := func(b *testing.B, form sizing.DelayForm) {
		b.Helper()
		g := netlist.MustCompile(netlist.Fig2Example())
		m := delay.MustBind(g, delay.Default())
		spec := sizing.Spec{
			Objective:   sizing.MinMuPlusKSigma(3),
			Formulation: sizing.FullSpace,
			DelayForm:   form,
			Solver:      nlp.Options{Method: nlp.NewtonCG},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := sizing.Size(m, spec)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = out.MuTmax
		}
	}
	b.Run("bilinear-eq15", func(b *testing.B) { run(b, sizing.Bilinear) })
	b.Run("division-eq14", func(b *testing.B) { run(b, sizing.Division) })
}

func BenchmarkAblationAdjointVsFDGradient(b *testing.B) {
	// The cost of one exact gradient of mu+3sigma on a 982-cell
	// circuit (two sweeps) vs one-sided finite differences (n+1
	// sweeps) — the paper's case for analytical derivatives.
	m := sstaModel(b, netlist.Apex1Like)
	S := m.UnitSizes()
	gates := m.G.C.GateIDs()
	b.Run("adjoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, grad := ssta.GradMuPlusKSigma(m, S, 3)
			sinkF = grad[gates[0]]
		}
	})
	b.Run("finite-difference", func(b *testing.B) {
		phi := func() float64 {
			r := ssta.Analyze(m, S, false)
			v, _, _ := ssta.ObjectiveMuPlusKSigma(r.Tmax, 3)
			return v
		}
		grad := make([]float64, len(S))
		for i := 0; i < b.N; i++ {
			base := phi()
			const h = 1e-6
			for _, id := range gates {
				S[id] += h
				grad[id] = (phi() - base) / h
				S[id] -= h
			}
			sinkF = grad[gates[0]]
		}
	})
}
