package montecarlo

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// The MCRun/MCScalarOracle pair measures Run's lane-strided blocks
// against the scalar per-sample oracle on the 1200-gate netlist; both
// draw the same 4096-sample shard, so ns/op is directly comparable
// (the oracle also keeps and sorts its samples, a small share of its
// time). `make bench-batch` collects both into BENCH_batch.json.

func gen1200(b *testing.B) *delay.Model {
	gen, err := netlist.Generate(netlist.GenSpec{
		Name: "par1200", Gates: 1200, Inputs: 48, Outputs: 12,
		Depth: 18, MaxFanin: 4, Seed: 1234,
	})
	if err != nil {
		b.Fatal(err)
	}
	return delay.MustBind(netlist.MustCompile(gen), delay.Default())
}

func BenchmarkMCRunGen1200(b *testing.B) {
	m := gen1200(b)
	S := m.UnitSizes()
	opt := Options{Samples: 4096, Seed: 7, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, S, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMCScalarOracleGen1200(b *testing.B) {
	m := gen1200(b)
	S := m.UnitSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarOracle(m, S, 4096, 7)
	}
}
