package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/ssta"
)

// KSweepRow holds one circuit's deterministic corner delays across
// the sigma levels, evaluated as lanes of one batched traversal,
// against the statistical quantiles at the same levels.
type KSweepRow struct {
	Circuit string
	// Corner[i] is the deterministic corner delay at Ks[i] (every
	// gate simultaneously at mu + k*sigma); Stat[i] is the analytic
	// circuit quantile mu_Tmax + k*sigma_Tmax.
	Corner, Stat []float64
}

// KSweepResult is the batched corner k-sweep experiment: the paper's
// corner-pessimism argument quantified at several risk levels at once.
type KSweepResult struct {
	Ks   []float64
	Rows []KSweepRow
}

// Format renders the k-sweep table.
func (t *KSweepResult) Format(w io.Writer) {
	title := "Batched corner k-sweep vs statistical quantiles"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-12s %-8s", "circuit", "kind")
	for _, k := range t.Ks {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("k=%+.3g", k))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-12s %-8s", r.Circuit, "corner")
		for _, v := range r.Corner {
			fmt.Fprintf(w, " %9.4f", v)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-12s %-8s", "", "stat")
		for _, v := range r.Stat {
			fmt.Fprintf(w, " %9.4f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// RunKSweep evaluates the corner sweep at every risk level in one
// batched traversal per circuit (ssta.KSweep, each lane bit-identical
// to a scalar corner sweep) and sets the deterministic corners
// against the statistical quantiles — the gap is the pessimism the
// paper's introduction argues corner methodology wastes, here visible
// growing with k.
func RunKSweep() (*KSweepResult, error) {
	res := &KSweepResult{Ks: []float64{-3, -1, 0, 1, 3}}
	cases := []struct {
		name string
		m    *delay.Model
	}{
		{"tree7", delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())},
		{"apex1-like", delay.MustBind(netlist.MustCompile(netlist.Apex1Like()), delay.Default())},
		{"k2-like", delay.MustBind(netlist.MustCompile(netlist.K2Like()), delay.Default())},
	}
	for _, cc := range cases {
		S := cc.m.UnitSizes()
		row := KSweepRow{
			Circuit: cc.name,
			Corner:  ssta.KSweep(cc.m, S, res.Ks),
			Stat:    make([]float64, len(res.Ks)),
		}
		an := ssta.Analyze(cc.m, S, false).Tmax
		for i, k := range res.Ks {
			row.Stat[i] = an.Mu + k*an.Sigma()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
