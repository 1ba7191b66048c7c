package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/delay"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/ssta"
)

// BaselineRow compares one sizing method at a shared deadline.
type BaselineRow struct {
	Method string
	// DetTmax is the sizing's deterministic (mean-delay) circuit
	// delay, the figure a deterministic sizer drives below D.
	DetTmax   float64
	Mu, Sigma float64
	SumS      float64
	// Quantile998 is mu + 3*sigma, the 99.8% analytic quantile.
	Quantile998 float64
	// YieldAtD is the Monte Carlo fraction of circuits meeting the
	// deadline.
	YieldAtD float64
}

// BaselineResult is the statistical-vs-deterministic comparison the
// paper's positioning implies: a deterministic sizer (reference [3]
// sizes on mean delays) meets the deadline in delays it cannot see
// vary; the statistical formulation spends a little more area and
// actually delivers the yield.
type BaselineResult struct {
	Circuit  string
	Deadline float64
	Samples  int
	Rows     []BaselineRow
}

// Format renders the comparison.
func (b *BaselineResult) Format(w io.Writer) {
	title := fmt.Sprintf("Baseline comparison on %s at deadline %.3f (%d MC samples)",
		b.Circuit, b.Deadline, b.Samples)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-28s %8s %8s %8s %8s %12s %10s\n",
		"method", "det Tmax", "mu", "sigma", "area", "mu+3sigma", "yield@D")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "%-28s %8.3f %8.3f %8.3f %8.2f %12.3f %9.1f%%\n",
			r.Method, r.DetTmax, r.Mu, r.Sigma, r.SumS, r.Quantile998, 100*r.YieldAtD)
	}
	fmt.Fprintln(w)
}

// RunBaseline sizes tree7 and then each of cases three ways against
// one deadline D — deterministic sizing on mean delays, statistical
// area-min with mu <= D, and statistical area-min with
// mu + 3*sigma <= D — and Monte Carlo-measures the yield each
// actually achieves at D. D is Table 1's midpoint deadline, left
// unrounded on tree7. The NLP solves of the cases, which Table 1
// makes too, come from solves.
func RunBaseline(cases []CircuitCase, samples int, solves *Solves) ([]*BaselineResult, error) {
	tree := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
	res, err := runBaseline("tree7", tree, samples, false, nil)
	if err != nil {
		return nil, fmt.Errorf("tree7 baseline: %w", err)
	}
	out := []*BaselineResult{res}
	for _, cc := range cases {
		m, err := cc.bind()
		if err != nil {
			return nil, err
		}
		res, err := runBaseline(cc.Name, m, samples, true, solves)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", cc.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// runBaseline is RunBaseline on one circuit. The deterministic row is
// TILOS-style greedy sizing of the model with sigma = 0, where
// mu + 0*sigma is the mean-delay circuit delay.
func runBaseline(name string, m *delay.Model, samples int, round bool, solves *Solves) (*BaselineResult, error) {
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	fast, err := solves.size(name, m, sizing.MinMuPlusKSigma(3), nil)
	if err != nil {
		return nil, err
	}
	deadline := midpointDeadline(fast.MuTmax+3*fast.SigmaTmax, unit.Mu, round)

	res := &BaselineResult{Circuit: name, Deadline: deadline, Samples: samples}
	measure := func(method string, S []float64) error {
		r := ssta.Analyze(m, S, false).Tmax
		mc, err := montecarlo.Run(m, S, montecarlo.Options{
			Samples: samples, Seed: 77, KeepSamples: true,
		})
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, BaselineRow{
			Method:  method,
			DetTmax: ssta.DetAnalyze(m, S).Tmax,
			Mu:      r.Mu, Sigma: r.Sigma(),
			SumS:        m.SumSizes(S),
			Quantile998: r.Mu + 3*r.Sigma(),
			YieldAtD:    mc.Yield(deadline),
		})
		return nil
	}

	detModel := *m
	detModel.Sigma = delay.Zero{}
	det, err := sizing.SizeGreedy(&detModel, sizing.GreedyOptions{
		K: 0, Step: 1.01, Deadline: deadline,
	})
	if err != nil {
		return nil, err
	}
	if !det.Met {
		return nil, fmt.Errorf("deterministic sizing missed D = %v: delay %v", deadline, det.MuTmax)
	}
	if err := measure("deterministic, sigma = 0", det.S); err != nil {
		return nil, err
	}
	for _, row := range []struct {
		method string
		k      float64
	}{{"statistical, mu <= D", 0}, {"statistical, mu+3sigma <= D", 3}} {
		con := sizing.DelayLE(row.k, deadline)
		stat, err := solves.size(name, m, sizing.MinArea(), &con)
		if err != nil {
			return nil, err
		}
		if err := measure(row.method, stat.S); err != nil {
			return nil, err
		}
	}
	return res, nil
}
