package bench

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/ssta"
)

// HierRow is one (block target, workers) cell of the hierarchical
// timing scaling experiment.
type HierRow struct {
	Target  int // requested block size
	Blocks  int // blocks the partitioner produced
	Workers int
	// FlatFullNS / HierFullNS: one full forward+adjoint evaluation
	// (taped sweep + gradient) through the flat serial path vs the
	// persistent blocked engine (Resweep + blocked adjoint). The flat
	// columns do not depend on the row: they are timed once per table.
	FlatFullNS, HierFullNS int64
	// FlatStepNS / HierStepNS: one warm sizing step — a single-gate
	// size change followed by a full gradient. The flat path must
	// re-sweep everything; the persistent engine re-evaluates only the
	// dirty cone's nodes.
	FlatStepNS, HierStepNS int64
	FullSpeedup            float64
	StepSpeedup            float64
}

// HierResult is the block-size x worker scaling table of the
// hierarchical block-parallel SSTA engine.
type HierResult struct {
	Circuit string
	Gates   int
	Rows    []HierRow
}

// Format renders the scaling table.
func (t *HierResult) Format(w io.Writer) {
	title := fmt.Sprintf("Hierarchical SSTA scaling — %s (%d gates)", t.Circuit, t.Gates)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%7s %7s %3s %12s %12s %8s %12s %12s %8s\n",
		"target", "blocks", "j", "flat full", "hier full", "speedup",
		"flat step", "hier step", "speedup")
	ms := func(ns int64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%7d %7d %3d %12s %12s %7.2fx %12s %12s %7.2fx\n",
			r.Target, r.Blocks, r.Workers,
			ms(r.FlatFullNS), ms(r.HierFullNS), r.FullSpeedup,
			ms(r.FlatStepNS), ms(r.HierStepNS), r.StepSpeedup)
	}
	fmt.Fprintln(w)
}

// timeBest runs f reps times and returns the fastest wall-clock
// duration in nanoseconds — minimum-of-N suppresses scheduler noise
// the same way testing.B's -count selection does.
func timeBest(reps int, f func()) int64 {
	best := int64(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start).Nanoseconds(); d < best {
			best = d
		}
	}
	return best
}

// RunHier measures the hierarchical block-parallel engine against the
// flat serial sweeps on a streamed synthetic netlist with the given
// gate count (>= 100000 uses the canonical gen100k preset), across
// block targets and worker counts. Every hierarchical evaluation is
// bit-identity-checked against the flat result before it is timed.
func RunHier(gates int, logf func(string, ...any)) (*HierResult, error) {
	spec := netlist.Gen100kSpec()
	if gates > 0 && gates < spec.Gates {
		spec = netlist.GenSpec{
			Name: fmt.Sprintf("gen%dk", gates/1000), Gates: gates,
			Inputs: 64 + gates/100, Outputs: 32,
			Depth: 24 + gates/2500, MaxFanin: 4, Seed: 100_001,
		}
	}
	var buf bytes.Buffer
	if err := netlist.GenerateStream(&buf, spec); err != nil {
		return nil, err
	}
	c, err := netlist.ReadCKT(&buf)
	if err != nil {
		return nil, err
	}
	g, err := netlist.Compile(c)
	if err != nil {
		return nil, err
	}
	m, err := delay.Bind(g, delay.Default())
	if err != nil {
		return nil, err
	}
	S := m.UnitSizes()
	gateIDs := c.GateIDs()
	res := &HierResult{Circuit: spec.Name, Gates: spec.Gates}

	const k = 3.0
	phiFlat, gradFlat := ssta.GradMuPlusKSigma(m, S, k)
	// The flat baseline is serial, so one timing serves every row.
	flatFull := timeBest(3, func() { ssta.GradMuPlusKSigma(m, S, k) })
	// Warm single-gate steps: cycle a handful of gates so the dirty
	// cone stays realistic and the slabs stay warm.
	step := 0
	flatS := append([]float64(nil), S...)
	flatStep := timeBest(3, func() {
		id := gateIDs[(step*7919)%len(gateIDs)]
		flatS[id] = 1 + 0.3*float64(step%5)
		step++
		ssta.GradMuPlusKSigma(m, flatS, k)
	})
	for _, target := range []int{128, 512, 2048} {
		for _, workers := range []int{1, 4, 8} {
			h := ssta.NewHier(m, S, ssta.HierOptions{BlockTarget: target, Workers: workers})
			phiH, gradH := h.GradMuPlusKSigma(k)
			if phiH != phiFlat {
				return nil, fmt.Errorf("bench: hier phi %v != flat %v (target %d, j%d)",
					phiH, phiFlat, target, workers)
			}
			for id := range gradFlat {
				if gradH[id] != gradFlat[id] {
					return nil, fmt.Errorf("bench: hier grad[%d] diverged (target %d, j%d)",
						id, target, workers)
				}
			}
			row := HierRow{
				Target: target, Blocks: len(h.Partition().Blocks), Workers: workers,
				FlatFullNS: flatFull, FlatStepNS: flatStep,
			}
			row.HierFullNS = timeBest(3, func() {
				h.Resweep()
				h.GradMuPlusKSigma(k)
			})
			step = 0
			h.Resweep()
			row.HierStepNS = timeBest(3, func() {
				id := gateIDs[(step*7919)%len(gateIDs)]
				h.SetSize(id, 1+0.3*float64(step%5))
				step++
				h.GradMuPlusKSigma(k)
			})
			row.FullSpeedup = float64(row.FlatFullNS) / float64(row.HierFullNS)
			row.StepSpeedup = float64(row.FlatStepNS) / float64(row.HierStepNS)
			if logf != nil {
				logf("hier target=%d j=%d: full %.2fx, step %.2fx",
					target, workers, row.FullSpeedup, row.StepSpeedup)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}
