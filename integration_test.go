package repro

import (
	"math"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/sizing"
	"repro/internal/ssta"
)

// Integration tests exercising whole pipelines across packages, the
// way a downstream user composes them.

func TestEndToEndRippleAdder(t *testing.T) {
	// Parse -> bind -> analyze -> size -> validate by Monte Carlo on
	// the most reconvergent structure in the module.
	c := netlist.RippleAdder(8)
	g := netlist.MustCompile(c)
	m := delay.MustBind(g, delay.Default())

	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	out, err := sizing.Size(m, sizing.Spec{Objective: sizing.MinMuPlusKSigma(3)})
	if err != nil {
		t.Fatal(err)
	}
	if out.MuTmax >= unit.Mu {
		t.Fatalf("sizing did not speed up the adder: %v -> %v", unit.Mu, out.MuTmax)
	}

	// The sized circuit must actually be faster in Monte Carlo terms,
	// not just per the (independence-biased) analytic model.
	mcUnit, err := montecarlo.Run(m, m.UnitSizes(), montecarlo.Options{Samples: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mcSized, err := montecarlo.Run(m, out.S, montecarlo.Options{Samples: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mcSized.Mu >= mcUnit.Mu {
		t.Errorf("MC disagrees with sizing: %v -> %v", mcUnit.Mu, mcSized.Mu)
	}

	// The canonical sweep must track MC far better than independence
	// on the carry chain's reconvergence.
	can := ssta.AnalyzeCanonical(m, m.UnitSizes())
	indErr := math.Abs(unit.Sigma() - mcUnit.Sigma)
	canErr := math.Abs(can.Tmax.Sigma() - mcUnit.Sigma)
	if canErr > indErr {
		t.Errorf("canonical sigma error %v worse than independence %v", canErr, indErr)
	}
}

func TestEndToEndBenchFileToSizing(t *testing.T) {
	// ISCAS c17 from its .bench text through the whole flow.
	const c17 = `
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`
	c, err := netlist.ReadBench(strings.NewReader(c17))
	if err != nil {
		t.Fatal(err)
	}
	m := delay.MustBind(netlist.MustCompile(c), delay.Default())
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	out, err := sizing.Size(m, sizing.Spec{
		Objective:   sizing.MinArea(),
		Constraints: []sizing.Constraint{sizing.DelayLE(3, unit.Mu+2*unit.Sigma())},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := out.MuTmax + 3*out.SigmaTmax
	if q > unit.Mu+2*unit.Sigma()+1e-3 {
		t.Errorf("c17 sizing missed its quantile: %v", q)
	}
}

func TestEndToEndPowerAwareFlow(t *testing.T) {
	// Activity extraction -> power-weighted sizing -> power estimate.
	m := delay.MustBind(netlist.MustCompile(netlist.RippleAdder(4)), delay.Default())
	w, err := power.Weights(m)
	if err != nil {
		t.Fatal(err)
	}
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	fast, err := sizing.Size(m, sizing.Spec{Objective: sizing.MinMu()})
	if err != nil {
		t.Fatal(err)
	}
	d := 0.5 * (unit.Mu + fast.MuTmax)
	out, err := sizing.Size(m, sizing.Spec{
		Objective: sizing.MinWeightedArea(), Weights: w,
		Constraints: []sizing.Constraint{sizing.DelayLE(0, d)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.MuTmax > d+1e-3 {
		t.Errorf("deadline missed: %v > %v", out.MuTmax, d)
	}
	p0, err := power.Estimate(m, m.UnitSizes())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := power.Estimate(m, out.S)
	if err != nil {
		t.Fatal(err)
	}
	if p1 <= p0 {
		t.Errorf("sized power %v below unsized %v (implausible: sizing adds load)", p1, p0)
	}
}

func TestEndToEndFormatInterop(t *testing.T) {
	// Generate a synthetic circuit, write it in all three formats,
	// read each back, and confirm identical timing.
	c, err := netlist.Generate(netlist.GenSpec{
		Name: "interop", Gates: 60, Inputs: 12, Outputs: 4,
		Depth: 6, MaxFanin: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := delay.MustBind(netlist.MustCompile(c), delay.Default())
	want := ssta.Analyze(ref, ref.UnitSizes(), false).Tmax

	var ckt, blif strings.Builder
	if err := netlist.WriteCKT(&ckt, c); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteBLIF(&blif, c); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() (*netlist.Circuit, error){
		"ckt":  func() (*netlist.Circuit, error) { return netlist.ReadCKT(strings.NewReader(ckt.String())) },
		"blif": func() (*netlist.Circuit, error) { return netlist.ReadBLIF(strings.NewReader(blif.String())) },
	} {
		rt, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := delay.MustBind(netlist.MustCompile(rt), delay.Default())
		got := ssta.Analyze(m, m.UnitSizes(), false).Tmax
		if math.Abs(got.Mu-want.Mu) > 1e-9 || math.Abs(got.Var-want.Var) > 1e-9 {
			t.Errorf("%s: timing changed after round trip: %+v vs %+v", name, got, want)
		}
	}
}
