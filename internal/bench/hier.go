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

// HierResult is the persistent-engine experiment: the engine against
// the flat serial sweeps on one circuit.
type HierResult struct {
	Circuit string
	Gates   int
	// FlatFullNS / HierFullNS: one full forward+adjoint evaluation
	// (taped sweep + gradient) through the flat path vs the persistent
	// engine (Resweep + adjoint over its warm slabs).
	FlatFullNS, HierFullNS int64
	// FlatStepNS / HierStepNS: one warm sizing step — a single-gate
	// size change followed by a full gradient. The flat path must
	// re-sweep everything; the persistent engine re-evaluates only the
	// dirty cone's nodes.
	FlatStepNS, HierStepNS int64
	FullSpeedup            float64
	StepSpeedup            float64
}

// Format renders the experiment as a one-row table.
func (t *HierResult) Format(w io.Writer) {
	title := fmt.Sprintf("Persistent SSTA engine vs flat sweeps — %s (%d gates)", t.Circuit, t.Gates)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%12s %12s %8s %12s %12s %8s\n",
		"flat full", "hier full", "speedup", "flat step", "hier step", "speedup")
	ms := func(ns int64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }
	fmt.Fprintf(w, "%12s %12s %7.2fx %12s %12s %7.2fx\n",
		ms(t.FlatFullNS), ms(t.HierFullNS), t.FullSpeedup,
		ms(t.FlatStepNS), ms(t.HierStepNS), t.StepSpeedup)
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

// RunHier measures the persistent engine against the flat serial
// sweeps on a streamed synthetic netlist with the given gate count
// (>= 100000 uses the canonical gen100k preset). The engine's gradient
// is bit-identity-checked against the flat result before it is timed.
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
	const k = 3.0
	phiFlat, gradFlat := ssta.GradMuPlusKSigma(m, S, k)
	h := ssta.NewHier(m, S, ssta.HierOptions{})
	phiH, gradH := h.GradMuPlusKSigma(k)
	if phiH != phiFlat {
		return nil, fmt.Errorf("bench: hier phi %v != flat %v", phiH, phiFlat)
	}
	for id := range gradFlat {
		if gradH[id] != gradFlat[id] {
			return nil, fmt.Errorf("bench: hier grad[%d] diverged", id)
		}
	}
	res := &HierResult{Circuit: spec.Name, Gates: spec.Gates}
	res.FlatFullNS = timeBest(3, func() { ssta.GradMuPlusKSigma(m, S, k) })
	res.HierFullNS = timeBest(3, func() {
		h.Resweep()
		h.GradMuPlusKSigma(k)
	})
	// Warm single-gate steps: cycle a handful of gates so the dirty
	// cone stays realistic and the slabs stay warm. Both paths replay
	// the same script.
	step := 0
	flatS := append([]float64(nil), S...)
	res.FlatStepNS = timeBest(3, func() {
		id := gateIDs[(step*7919)%len(gateIDs)]
		flatS[id] = 1 + 0.3*float64(step%5)
		step++
		ssta.GradMuPlusKSigma(m, flatS, k)
	})
	step = 0
	res.HierStepNS = timeBest(3, func() {
		id := gateIDs[(step*7919)%len(gateIDs)]
		h.SetSize(id, 1+0.3*float64(step%5))
		step++
		h.GradMuPlusKSigma(k)
	})
	res.FullSpeedup = float64(res.FlatFullNS) / float64(res.HierFullNS)
	res.StepSpeedup = float64(res.FlatStepNS) / float64(res.HierStepNS)
	if logf != nil {
		logf("hier: full %.2fx, step %.2fx", res.FullSpeedup, res.StepSpeedup)
	}
	return res, nil
}
