package sizing

import (
	"testing"

	"repro/internal/nlp"
)

// Solver benchmarks on a >=1000-gate generated netlist. The iteration
// caps hold the work per solve fixed, so the numbers compare solver
// configurations rather than convergence luck.

func benchmarkSolver(b *testing.B, method nlp.Method, form Formulation) {
	m := genModel(b, 1200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Size(m, Spec{
			Objective:   MinMuPlusKSigma(1),
			Formulation: form,
			Solver:      nlp.Options{Method: method, MaxOuter: 2, MaxInner: 10},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveFullNewton1200(b *testing.B) {
	benchmarkSolver(b, nlp.NewtonCG, FullSpace)
}

func BenchmarkSolveFullLBFGS1200(b *testing.B) {
	benchmarkSolver(b, nlp.LBFGS, FullSpace)
}

func BenchmarkSolveReducedLBFGS1200(b *testing.B) {
	benchmarkSolver(b, nlp.LBFGS, Reduced)
}
