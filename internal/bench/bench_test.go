package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/netlist"
)

func close(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestCalibratedParamsHitAnchors(t *testing.T) {
	// Re-evaluate the baked-in parameters against the paper's
	// anchors: this is the regression test that the calibration holds.
	tp := CalibratedTreeParams()
	tg := PaperTargets()
	if loss := tp.Loss(tg); loss > 0.01 {
		t.Errorf("calibrated loss = %v, want < 0.01", loss)
	}
}

func TestCalibrationImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	tg := PaperTargets()
	start := TreeParams{TInt: 0.5, WireBase: 0.5, OutputLoad: 1, CIn: 0.5}
	out := CalibrateTree(tg, start, 60)
	if out.Loss(tg) >= start.Loss(tg) {
		t.Errorf("calibration did not improve: %v -> %v", start.Loss(tg), out.Loss(tg))
	}
}

func TestRunTable2ShapesMatchPaper(t *testing.T) {
	tbl, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tbl.Rows))
	}
	unit, fast := tbl.Rows[0], tbl.Rows[1]
	// Paper anchors: 7.4 / 0.811 unsized; 5.4 / 0.592 / 21 fastest.
	if !close(unit.Mu, 7.4, 0.1) || !close(unit.Sigma, 0.811, 0.05) {
		t.Errorf("unsized row: mu=%v sigma=%v", unit.Mu, unit.Sigma)
	}
	if !close(fast.Mu, 5.4, 0.1) || !close(fast.SumS, 21, 0.1) {
		t.Errorf("fastest row: mu=%v sum=%v", fast.Mu, fast.SumS)
	}
	// Per fixed mean: rows come in (min area, min sigma, max sigma)
	// triples. Check the paper's structural findings.
	type triple struct{ area, minS, maxS Row }
	var triples []triple
	for i := 2; i+2 < len(tbl.Rows)+1; i += 3 {
		triples = append(triples, triple{tbl.Rows[i], tbl.Rows[i+1], tbl.Rows[i+2]})
	}
	if len(triples) != 3 {
		t.Fatalf("triples = %d", len(triples))
	}
	var intervals []float64
	for i, tr := range triples {
		// All three hit the same fixed mean.
		if !close(tr.area.Mu, tr.minS.Mu, 0.02) || !close(tr.area.Mu, tr.maxS.Mu, 0.02) {
			t.Errorf("triple %d: means differ: %v %v %v", i, tr.area.Mu, tr.minS.Mu, tr.maxS.Mu)
		}
		// Sigma interval exists: minS <= area <= maxS.
		if tr.minS.Sigma > tr.area.Sigma+1e-3 || tr.maxS.Sigma < tr.area.Sigma-1e-3 {
			t.Errorf("triple %d: sigma not bracketed: %v in [%v, %v]",
				i, tr.area.Sigma, tr.minS.Sigma, tr.maxS.Sigma)
		}
		// Min sigma costs at least as much area as min area.
		if tr.minS.SumS < tr.area.SumS-1e-3 {
			t.Errorf("triple %d: min-sigma area %v below min-area %v",
				i, tr.minS.SumS, tr.area.SumS)
		}
		intervals = append(intervals, tr.maxS.Sigma-tr.minS.Sigma)
	}
	// Paper: the sigma interval is largest at the middle mean.
	if !(intervals[1] > intervals[0] && intervals[1] > intervals[2]) {
		t.Errorf("middle interval not largest: %v", intervals)
	}
}

func TestRunTable3ShapesMatchPaper(t *testing.T) {
	res, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	area, minS, maxS := res.Rows[0], res.Rows[1], res.Rows[2]

	// Symmetric groups (A,B,D,E) and (C,F) treated alike for min-area
	// and min-sigma.
	for _, r := range []FactorRow{area, minS} {
		grp1 := []float64{r.S[0], r.S[1], r.S[3], r.S[4]}
		for _, s := range grp1[1:] {
			if !close(s, grp1[0], 0.03) {
				t.Errorf("%s: level-1 group not uniform: %v", r.Objective, grp1)
			}
		}
		if !close(r.S[2], r.S[5], 0.03) {
			t.Errorf("%s: level-2 group not uniform: %v %v", r.Objective, r.S[2], r.S[5])
		}
		// Factors increase toward the output (paper's finding).
		if !(r.S[0] <= r.S[2]+0.03 && r.S[2] <= r.S[6]+0.03) {
			t.Errorf("%s: not increasing toward output: A=%v C=%v G=%v",
				r.Objective, r.S[0], r.S[2], r.S[6])
		}
	}
	// Paper: min-area factors near (1.22, 1.45, 1.74).
	if !close(area.S[0], 1.22, 0.08) || !close(area.S[2], 1.45, 0.08) || !close(area.S[6], 1.74, 0.12) {
		t.Errorf("min-area factors: A=%v C=%v G=%v, want ~1.22/1.45/1.74",
			area.S[0], area.S[2], area.S[6])
	}
	// Paper: min-sigma is more extreme than min-area (inputs toward 1,
	// output toward the limit).
	if !(minS.S[0] < area.S[0]+0.02 && minS.S[6] > area.S[6]-0.02) {
		t.Errorf("min-sigma not more extreme: A %v vs %v, G %v vs %v",
			minS.S[0], area.S[0], minS.S[6], area.S[6])
	}
	// Paper: max-sigma unbalances the paths: the level-1 factors are
	// NOT all equal.
	spread := 0.0
	for _, s := range []float64{maxS.S[0], maxS.S[1], maxS.S[3], maxS.S[4]} {
		if d := math.Abs(s - maxS.S[0]); d > spread {
			spread = d
		}
	}
	if spread < 0.2 {
		t.Errorf("max-sigma did not unbalance level 1: %v", maxS.S)
	}
}

func TestRunTable1SmallCircuit(t *testing.T) {
	// Full Table 1 takes a while; exercise the runner end-to-end on
	// the smallest circuit and check the paper's qualitative shape.
	cases := []CircuitCase{Table1Circuits()[1]} // apex2-like
	tbl, err := RunTable1(cases, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tbl.Rows))
	}
	unit := tbl.Rows[0]
	minMu, minMu1, minMu3 := tbl.Rows[1], tbl.Rows[2], tbl.Rows[3]
	area0, area1, area3 := tbl.Rows[4], tbl.Rows[5], tbl.Rows[6]

	// Min-mu roughly halves the delay at a large area cost (paper:
	// 31.5 -> 23.45 at 117 -> 304 for apex2; shape, not numbers).
	if minMu.Mu >= 0.85*unit.Mu {
		t.Errorf("min-mu did not improve enough: %v -> %v", unit.Mu, minMu.Mu)
	}
	if minMu.SumS <= float64(unit.Cells) {
		t.Errorf("min-mu area did not grow: %v", minMu.SumS)
	}
	// Mu creeps up and sigma comes down as k grows; area shrinks.
	if !(minMu.Mu <= minMu1.Mu+1e-6 && minMu1.Mu <= minMu3.Mu+1e-6) {
		t.Errorf("mu not increasing with k: %v %v %v", minMu.Mu, minMu1.Mu, minMu3.Mu)
	}
	if !(minMu.Sigma >= minMu1.Sigma-1e-6 && minMu1.Sigma >= minMu3.Sigma-1e-6) {
		t.Errorf("sigma not decreasing with k: %v %v %v",
			minMu.Sigma, minMu1.Sigma, minMu3.Sigma)
	}
	if !(minMu3.SumS <= minMu.SumS+1e-6) {
		t.Errorf("mu+3sigma area above min-mu area: %v vs %v", minMu3.SumS, minMu.SumS)
	}
	// Constrained area rows: area grows with k; constraint satisfied;
	// mean pulled below the deadline by ~k*sigma (paper's pattern:
	// 29.00 / 27.64 / 25.47 under the same deadline).
	if !(area0.SumS <= area1.SumS+1e-6 && area1.SumS <= area3.SumS+1e-6) {
		t.Errorf("area not increasing with k: %v %v %v", area0.SumS, area1.SumS, area3.SumS)
	}
	if !(area0.Mu >= area1.Mu-1e-6 && area1.Mu >= area3.Mu-1e-6) {
		t.Errorf("constrained mu not decreasing with k: %v %v %v",
			area0.Mu, area1.Mu, area3.Mu)
	}
	// All constrained rows stay above the unconstrained floor.
	for i, r := range []Row{area0, area1, area3} {
		if r.SumS < float64(unit.Cells)-1e-6 {
			t.Errorf("row %d: area %v below floor %d", i, r.SumS, unit.Cells)
		}
	}
}

func TestRunYield(t *testing.T) {
	res, err := RunYield(100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Circuit != "tree7" {
			continue
		}
		// Tree: no reconvergence, the claim holds tightly.
		tol := 0.02
		if math.Abs(r.Measured-r.Claimed) > tol {
			t.Errorf("tree %s: measured %v vs claimed %v", r.Deadline, r.Measured, r.Claimed)
		}
	}
	// The reconvergent circuit still conforms within a usable margin
	// at mu (the median is robust to sigma deflation).
	for _, r := range res.Rows {
		if r.Circuit == "apex2-like" && r.Deadline == "mu" {
			if r.Measured < 0.4 {
				t.Errorf("apex2 mu yield collapsed: %v", r.Measured)
			}
		}
	}
}

func TestRunBaseline(t *testing.T) {
	res, err := RunBaseline(nil, 50000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Circuit != "tree7" || len(res[0].Rows) != 3 {
		t.Fatalf("results = %d, want tree7 alone with 3 rows", len(res))
	}
	det, statMu, stat3 := res[0].Rows[0], res[0].Rows[1], res[0].Rows[2]
	if det.DetTmax > res[0].Deadline {
		t.Errorf("deterministic delay %v above D = %v", det.DetTmax, res[0].Deadline)
	}
	// The deterministic baseline has no sigma handle: its yield at D
	// sits near or below 50%.
	if det.YieldAtD > 0.6 {
		t.Errorf("deterministic yield %v suspiciously high", det.YieldAtD)
	}
	// mu <= D delivers ~50% (median at the deadline).
	if math.Abs(statMu.YieldAtD-0.5) > 0.05 {
		t.Errorf("mu<=D yield %v, want ~0.5", statMu.YieldAtD)
	}
	// mu+3sigma <= D delivers ~99.8% at a real area premium.
	if stat3.YieldAtD < 0.99 {
		t.Errorf("mu+3sigma<=D yield %v, want ~0.998", stat3.YieldAtD)
	}
	if stat3.SumS <= statMu.SumS {
		t.Errorf("yield guarantee came free: %v vs %v", stat3.SumS, statMu.SumS)
	}
	var buf bytes.Buffer
	res[0].Format(&buf)
	if !strings.Contains(buf.String(), "deterministic, sigma = 0") {
		t.Errorf("format:\n%s", buf.String())
	}

	// On the reconvergent Table 1 circuits the analytic moments are
	// biased (EXPERIMENTS.md, section 4), so only the orderings are
	// asserted, not the 50% / 99.8% yields.
	t.Run("table1", func(t *testing.T) {
		if testing.Short() {
			t.Skip("sizes three Table 1 circuits three ways")
		}
		cases := Table1Circuits()
		res, err := RunBaseline(cases, 20000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1+len(cases) {
			t.Fatalf("results = %d, want %d", len(res), 1+len(cases))
		}
		for i, cc := range cases {
			r := res[1+i]
			if r.Circuit != cc.Name || len(r.Rows) != 3 {
				t.Fatalf("result %d: %s with %d rows, want %s with 3", 1+i, r.Circuit, len(r.Rows), cc.Name)
			}
			det, statMu, stat3 := r.Rows[0], r.Rows[1], r.Rows[2]
			if det.DetTmax > r.Deadline {
				t.Errorf("%s: deterministic delay %v above D = %v", r.Circuit, det.DetTmax, r.Deadline)
			}
			if !(det.YieldAtD < statMu.YieldAtD && statMu.YieldAtD < stat3.YieldAtD) {
				t.Errorf("%s: yields %v, %v, %v not increasing", r.Circuit,
					det.YieldAtD, statMu.YieldAtD, stat3.YieldAtD)
			}
			if !(det.SumS < statMu.SumS && statMu.SumS < stat3.SumS) {
				t.Errorf("%s: areas %v, %v, %v not increasing", r.Circuit,
					det.SumS, statMu.SumS, stat3.SumS)
			}
		}
	})
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		Title: "T",
		Rows: []Row{
			{Circuit: "c1", Cells: 3, Minimize: "mu", Mu: 1.5, Sigma: 0.25, SumS: 3},
			{Circuit: "c1", Cells: 3, Minimize: "sum(Si)", Constraint: "mu <= 2",
				Mu: 2, Sigma: 0.3, SumS: 4, HasCPU: true},
		},
	}
	var buf bytes.Buffer
	tbl.Format(&buf)
	out := buf.String()
	for _, want := range []string{"c1", "mu <= 2", "1.50", "0.250"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	// Repeated circuit name suppressed on second row.
	if strings.Count(out, "c1") != 1 {
		t.Errorf("circuit name repeated:\n%s", out)
	}
}

func TestYieldFormat(t *testing.T) {
	y := &YieldResult{Samples: 10, Rows: []YieldRow{
		{Circuit: "x", Deadline: "mu", Claimed: 0.5, Measured: 0.49},
	}}
	var buf bytes.Buffer
	y.Format(&buf)
	if !strings.Contains(buf.String(), "50.0%") || !strings.Contains(buf.String(), "49.0%") {
		t.Errorf("yield format:\n%s", buf.String())
	}
}

func TestTable3Format(t *testing.T) {
	res := &Table3Result{MuFixed: 6.5, Rows: []FactorRow{
		{Objective: "min area", S: [7]float64{1, 2, 3, 4, 5, 6, 7}},
	}}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "min area") || !strings.Contains(buf.String(), "SG") {
		t.Errorf("table3 format:\n%s", buf.String())
	}
}

func TestTable1CircuitsMatchPaperScale(t *testing.T) {
	cases := Table1Circuits()
	want := map[string]int{"apex1-like": 982, "apex2-like": 117, "k2-like": 1692}
	for _, cc := range cases {
		c := cc.Make()
		if c.NumGates() != want[cc.Name] {
			t.Errorf("%s: %d cells, want %d", cc.Name, c.NumGates(), want[cc.Name])
		}
		if _, err := netlist.Compile(c); err != nil {
			t.Errorf("%s: %v", cc.Name, err)
		}
	}
}

// TestSharedSolves runs Table 1 and the baseline comparison on the
// apex2-like circuit through one Solves: the three solves they share
// are made once, and each table reads exactly as it does alone, apart
// from the CPU column.
func TestSharedSolves(t *testing.T) {
	cases := []CircuitCase{Table1Circuits()[1]} // apex2-like
	alone1, err := RunTable1(cases, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	aloneB, err := RunBaseline(cases, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	solves := NewSolves()
	shared1, err := RunTable1(cases, nil, solves)
	if err != nil {
		t.Fatal(err)
	}
	sharedB, err := RunBaseline(cases, 2000, solves)
	if err != nil {
		t.Fatal(err)
	}
	// Table 1 makes six NLP solves; the baseline's three are among them.
	if n := len(solves.done); n != 6 {
		t.Fatalf("%d distinct solves, want 6", n)
	}
	withoutCPU := func(tbl *Table) string {
		rows := append([]Row(nil), tbl.Rows...)
		for i := range rows {
			rows[i].CPU = 0
		}
		var buf bytes.Buffer
		(&Table{Title: tbl.Title, Note: tbl.Note, Rows: rows}).Format(&buf)
		return buf.String()
	}
	if a, b := withoutCPU(alone1), withoutCPU(shared1); a != b {
		t.Fatalf("Table 1 alone:\n%s\nshared:\n%s", a, b)
	}
	format := func(res []*BaselineResult) string {
		var buf bytes.Buffer
		for _, r := range res {
			r.Format(&buf)
		}
		return buf.String()
	}
	if a, b := format(aloneB), format(sharedB); a != b {
		t.Fatalf("baseline alone:\n%s\nshared:\n%s", a, b)
	}
}
