package delay

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

func close(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestLibraryAddLookup(t *testing.T) {
	l := NewLibrary(1, 0, 0, 0)
	l.Add(CellType{Name: "x", Fanin: 2, TInt: 1, CIn: 2})
	if ct, ok := l.Cell("x"); !ok || ct.TInt != 1 {
		t.Errorf("Cell(x) = %+v %v", ct, ok)
	}
	if _, ok := l.Cell("y"); ok {
		t.Error("missing cell found")
	}
	if l.NumCells() != 1 {
		t.Errorf("NumCells = %d", l.NumCells())
	}
}

func TestDefaultLibraryCoversGeneratorTypes(t *testing.T) {
	l := Default()
	for _, typ := range []string{"inv", "buf", "nand2", "nor2", "nand3", "nor3", "nand4", "nor4"} {
		if _, ok := l.Cell(typ); !ok {
			t.Errorf("default library missing %s", typ)
		}
	}
}

func TestBindRejectsUnknownType(t *testing.T) {
	c := netlist.New("t")
	c.AddInput("a")
	c.AddGate("g", "weird9", "a")
	c.MarkOutput("g")
	g := netlist.MustCompile(c)
	if _, err := Bind(g, Default()); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestBindRejectsArityMismatch(t *testing.T) {
	c := netlist.New("t")
	c.AddInput("a")
	c.AddGate("g", "nand2", "a") // nand2 wants 2 inputs
	c.MarkOutput("g")
	g := netlist.MustCompile(c)
	if _, err := Bind(g, Default()); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// chain2 builds in -> g1(inv) -> g2(inv), output g2.
func chain2(t *testing.T) (*Model, netlist.NodeID, netlist.NodeID) {
	t.Helper()
	c := netlist.New("t")
	c.AddInput("in")
	c.AddGate("g1", "inv", "in")
	c.AddGate("g2", "inv", "g1")
	c.MarkOutput("g2")
	g := netlist.MustCompile(c)
	m, err := Bind(g, Default())
	if err != nil {
		t.Fatal(err)
	}
	return m, c.MustID("g1"), c.MustID("g2")
}

func TestBindLoads(t *testing.T) {
	m, g1, g2 := chain2(t)
	lib := Default()
	// g1 drives one fanout pin: CLoad = base + perFanout*1.
	if want := lib.WireBase + lib.WirePerFanout; !close(m.CLoad[g1], want, 1e-15) {
		t.Errorf("CLoad[g1] = %v, want %v", m.CLoad[g1], want)
	}
	// g2 is an output with no fanout: base + pad load.
	if want := lib.WireBase + lib.OutputLoad; !close(m.CLoad[g2], want, 1e-15) {
		t.Errorf("CLoad[g2] = %v, want %v", m.CLoad[g2], want)
	}
}

// TestBindLoadsMatchOutputScan checks every gate's bound CLoad bit for
// bit against the load formula with output membership taken from a
// linear scan of Outputs, on circuits with many outputs and on one
// generated the way Generate marks them (compile first, mark after).
func TestBindLoadsMatchOutputScan(t *testing.T) {
	gen, err := netlist.Generate(netlist.GenSpec{Name: "g", Gates: 600, Inputs: 24, Outputs: 40, Depth: 12, MaxFanin: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lib := Default()
	for _, c := range []*netlist.Circuit{netlist.Tree7(), netlist.Apex2Like(), netlist.K2Like(), gen} {
		g := netlist.MustCompile(c)
		m := MustBind(g, lib)
		for i, nd := range c.Nodes {
			if nd.Kind != netlist.KindGate {
				continue
			}
			id := netlist.NodeID(i)
			want := lib.WireBase + lib.WirePerFanout*float64(len(g.Fanout[id]))
			for _, o := range c.Outputs {
				if o == id {
					want += lib.OutputLoad
				}
			}
			if m.CLoad[id] != want {
				t.Fatalf("%s: CLoad[%s] = %v, want %v", c.Name, nd.Name, m.CLoad[id], want)
			}
		}
	}
}

func TestGateMuMatchesEq14(t *testing.T) {
	m, g1, g2 := chain2(t)
	S := m.UnitSizes()
	S[g1] = 2
	S[g2] = 1.5
	// g1: t_int + c*(CLoad1 + CIn(inv)*S2)/S1.
	want := m.TInt[g1] + m.Coef*(m.CLoad[g1]+m.CIn[g2]*1.5)/2
	if got := m.GateMu(g1, S); !close(got, want, 1e-14) {
		t.Errorf("GateMu(g1) = %v, want %v", got, want)
	}
	// Larger S makes the gate faster, all else equal.
	S2 := append([]float64(nil), S...)
	S2[g1] = 3
	if m.GateMu(g1, S2) >= m.GateMu(g1, S) {
		t.Error("sizing up did not speed the gate up")
	}
	// Sizing the *fanout* up slows the driver down (more load).
	S3 := append([]float64(nil), S...)
	S3[g2] = 3
	if m.GateMu(g1, S3) <= m.GateMu(g1, S) {
		t.Error("fanout upsizing did not load the driver")
	}
}

func TestGateMVUsesSigmaModel(t *testing.T) {
	m, g1, _ := chain2(t)
	m.Sigma = Proportional{K: 0.25}
	S := m.UnitSizes()
	mv := m.GateMV(g1, S)
	mu := m.GateMu(g1, S)
	if !close(mv.Mu, mu, 1e-15) {
		t.Errorf("MV mu = %v, want %v", mv.Mu, mu)
	}
	if !close(mv.Var, (0.25*mu)*(0.25*mu), 1e-14) {
		t.Errorf("MV var = %v", mv.Var)
	}
}

func TestGateMuGradAgainstFD(t *testing.T) {
	// A diamond: in -> a; a -> b, c; b,c -> d. Exercises own-S and
	// fanout-S derivative paths plus multi-fanout accumulation.
	c := netlist.New("t")
	c.AddInput("in")
	c.AddGate("a", "inv", "in")
	c.AddGate("b", "inv", "a")
	c.AddGate("cc", "inv", "a")
	c.AddGate("d", "nand2", "b", "cc")
	c.MarkOutput("d")
	g := netlist.MustCompile(c)
	m, err := Bind(g, Default())
	if err != nil {
		t.Fatal(err)
	}
	S := m.UnitSizes()
	for i, id := range c.GateIDs() {
		S[id] = 1.2 + 0.3*float64(i)
	}
	for _, gid := range c.GateIDs() {
		grad := make([]float64, len(S))
		m.GateMuGrad(gid, S, 1, grad)
		for _, vid := range c.GateIDs() {
			h := 1e-7
			Sp := append([]float64(nil), S...)
			Sm := append([]float64(nil), S...)
			Sp[vid] += h
			Sm[vid] -= h
			fd := (m.GateMu(gid, Sp) - m.GateMu(gid, Sm)) / (2 * h)
			if !close(grad[vid], fd, 1e-5) {
				t.Errorf("d mu(%s)/d S(%s): analytic %v, FD %v",
					c.Nodes[gid].Name, c.Nodes[vid].Name, grad[vid], fd)
			}
		}
	}
}

func TestGateMuGradScaleAndAccumulate(t *testing.T) {
	m, g1, _ := chain2(t)
	S := m.UnitSizes()
	g := make([]float64, len(S))
	m.GateMuGrad(g1, S, 2, g)
	g2 := make([]float64, len(S))
	m.GateMuGrad(g1, S, 1, g2)
	m.GateMuGrad(g1, S, 1, g2) // accumulate twice
	for i := range g {
		if !close(g[i], g2[i], 1e-14) {
			t.Errorf("scale/accumulate mismatch at %d: %v vs %v", i, g[i], g2[i])
		}
	}
}

func TestClampAndSum(t *testing.T) {
	m, g1, g2 := chain2(t)
	S := m.UnitSizes()
	S[g1] = 0.2
	S[g2] = 99
	m.ClampSizes(S)
	if S[g1] != 1 || S[g2] != m.Limit {
		t.Errorf("clamp: %v %v", S[g1], S[g2])
	}
	if got := m.SumSizes(S); !close(got, 1+m.Limit, 1e-15) {
		t.Errorf("SumSizes = %v", got)
	}
}

func TestSigmaModels(t *testing.T) {
	models := []SigmaModel{
		Proportional{K: 0.25},
		Affine{A: 0.1, B: 0.2},
		Constant{S: 0.3},
		Zero{},
	}
	for _, sm := range models {
		if err := ValidateSigmaModel(sm, 0, 10); err != nil {
			t.Errorf("%T: %v", sm, err)
		}
		// DVar must be the derivative of Var.
		for _, mu := range []float64{0.5, 1, 3, 7} {
			h := 1e-6
			fd := (sm.Var(mu+h) - sm.Var(mu-h)) / (2 * h)
			if !close(sm.DVar(mu), fd, 1e-6) {
				t.Errorf("%T DVar(%v) = %v, FD %v", sm, mu, sm.DVar(mu), fd)
			}
			fd2 := (sm.DVar(mu+h) - sm.DVar(mu-h)) / (2 * h)
			if !close(sm.D2Var(mu), fd2, 1e-4) {
				t.Errorf("%T D2Var(%v) = %v, FD %v", sm, mu, sm.D2Var(mu), fd2)
			}
		}
	}
}

func TestValidateSigmaModelCatchesNegative(t *testing.T) {
	if err := ValidateSigmaModel(Affine{A: -5, B: 0}, 0, 10); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestQuickGateMuPositive(t *testing.T) {
	m, g1, g2 := chain2(t)
	f := func(s1, s2 float64) bool {
		S := m.UnitSizes()
		S[g1] = 1 + math.Abs(math.Mod(s1, 2))
		S[g2] = 1 + math.Abs(math.Mod(s2, 2))
		return m.GateMu(g1, S) > m.TInt[g1] && m.GateMu(g2, S) > m.TInt[g2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperTreeLibrary(t *testing.T) {
	l := PaperTree()
	if _, ok := l.Cell("nand2"); !ok {
		t.Fatal("paper tree library missing nand2")
	}
	g := netlist.MustCompile(netlist.Tree7())
	if _, err := Bind(g, l); err != nil {
		t.Fatal(err)
	}
}

// TestResolvedSigmaBitwise pins the per-sweep resolution of a sigma
// model: Var and DVar equal the model's own methods bit for bit (±0
// told apart, any NaN equal to any NaN) over a mean grid with zeros,
// negatives, subnormals, huge values, infinities and NaN, and only
// Proportional takes the fast path.
func TestResolvedSigmaBitwise(t *testing.T) {
	same := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return math.Float64bits(x) == math.Float64bits(y)
	}
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	mus := []float64{0, negZero, 1, -1, 0.5, 3.7, -2.25, 1e-3, sub, -sub, 3 * sub,
		0x1p-1022, 1e-160, 1e150, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, tc := range []struct {
		m    SigmaModel
		fast bool
	}{
		{Proportional{K: 0.25}, true},
		{Proportional{K: 0}, true},
		{Proportional{K: negZero}, true},
		{Proportional{K: sub}, true},
		{Proportional{K: 1e-160}, true},
		// K*K subnormal: 2*K*K must round once, as (2*K)*K.
		{Proportional{K: 3e-162}, true},
		{Proportional{K: 1.7e-161}, true},
		{Proportional{K: 7.77e-162}, true},
		{Proportional{K: 0.1}, true},
		{Proportional{K: -0.3}, true},
		{Proportional{K: 1e150}, true},
		{Proportional{K: 1e200}, true},
		{Proportional{K: math.Inf(1)}, true},
		{Affine{A: 0.1, B: 0.2}, false},
		{Affine{A: sub, B: 1e150}, false},
		{Zero{}, false},
		{Constant{S: 0.3}, false},
	} {
		r := ResolveSigma(tc.m)
		if r.prop != tc.fast {
			t.Errorf("%#v: fast path %v, want %v", tc.m, r.prop, tc.fast)
		}
		for _, mu := range mus {
			if got, want := r.Var(mu), tc.m.Var(mu); !same(got, want) {
				t.Errorf("%#v: resolved Var(%v) = %v (%#x), want %v (%#x)", tc.m, mu, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := r.DVar(mu), tc.m.DVar(mu); !same(got, want) {
				t.Errorf("%#v: resolved DVar(%v) = %v (%#x), want %v (%#x)", tc.m, mu, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
