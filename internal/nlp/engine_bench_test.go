package nlp

import "testing"

// Benchmarks for the element evaluation engine on a synthetic
// partially separable problem.

func BenchmarkMeritGrad(b *testing.B) {
	const n = 2000
	p := chainProblem(n)
	x := testPoint(n, 0.7)
	grad := make([]float64, n)
	st := newTestState(p)
	st.merit(x, grad) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.merit(x, grad)
	}
}

func BenchmarkHessVec(b *testing.B) {
	const n = 2000
	p := chainProblem(n)
	x := testPoint(n, 1.9)
	v := testPoint(n, 0.2)
	out := make([]float64, n)
	opt := Options{Method: NewtonCG}.withDefaults()
	st := newTestState(p)
	ns := newNewtonSolver(p, st, opt)
	for i := range ns.free {
		ns.free[i] = true
	}
	ns.buildCache(x)
	ns.hessVec(v, out) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns.hessVec(v, out)
	}
}

func BenchmarkSolveChain(b *testing.B) {
	const n = 1000
	p := chainProblem(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x0 := testPoint(n, 0.4)
		if _, err := Solve(p, x0, Options{MaxInner: 200}); err != nil {
			b.Fatal(err)
		}
	}
}
