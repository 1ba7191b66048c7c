package sizing

import (
	"testing"
)

// BenchmarkGreedyIncremental1200 runs a fixed number of sensitivity
// steps (the deadline is infeasible, so the step count is exactly
// MaxSteps) on the 1200-gate generated netlist, on the incremental
// engine with serial sweeps.
func BenchmarkGreedyIncremental1200(b *testing.B) {
	m := genModel(b, 1200)
	opt := GreedyOptions{K: 3, Deadline: 0.01, MaxSteps: 64, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SizeGreedy(m, opt); err != nil {
			b.Fatal(err)
		}
	}
}
