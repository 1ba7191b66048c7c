// Package delay implements the sizable gate delay model of the paper
// (equations 14 and 15, after Berkelaar & Jess 1990):
//
//	t_cell = t_int + c * (C_load + sum_i C_in,i * S_i) / S_cell
//
// where S_cell is the gate's speed factor (1 = unsized), t_int the
// internal delay that sizing cannot reduce, C_load the fixed wiring
// load, and each fanout pin contributes its gate-oxide capacitance
// C_in scaled by the fanout gate's own speed factor S_i. The standard
// deviation of the gate delay follows the sizing through a sigma model
// sigma_t = f(t_cell); the paper's experiments use f(t) = 0.25 t.
package delay

import (
	"fmt"
	"math"
)

// CellType describes one library cell.
type CellType struct {
	Name string
	// Fanin is the cell's input pin count; binding checks it against
	// the netlist.
	Fanin int
	// TInt is the internal (unsizable) delay t_int.
	TInt float64
	// CIn is the input capacitance of one input pin at S = 1; the
	// load it presents to a driver scales with this cell's S.
	CIn float64
	// PinOffsets holds an additive delay per input pin, realizing the
	// per-pin delays of the paper's eq 1 (T_out = max_i(T_i + t_i)):
	// the arrival through pin i is charged t_cell + PinOffsets[i].
	// nil means all pins equal, the simplification the paper itself
	// adopts "for the purpose of clarity" (section 2). When non-nil
	// the length must equal Fanin.
	PinOffsets []float64
}

// Library is a set of cell types plus the global electrical
// parameters of the delay model.
type Library struct {
	// Coef is the constant c relating capacitance to delay.
	Coef float64
	// WireBase and WirePerFanout define the fixed wiring load of a
	// gate: C_load = WireBase + WirePerFanout * (number of fanout
	// pins). The paper folds all wiring into one capacitance per gate
	// (section 2); this linear-in-fanout form is the simplest
	// placement-free estimate.
	WireBase      float64
	WirePerFanout float64
	// OutputLoad is the extra capacitance seen by primary-output
	// gates (pads or downstream blocks).
	OutputLoad float64

	cells map[string]CellType
}

// NewLibrary returns a library with the given electrical constants and
// no cells.
func NewLibrary(coef, wireBase, wirePerFanout, outputLoad float64) *Library {
	return &Library{
		Coef:          coef,
		WireBase:      wireBase,
		WirePerFanout: wirePerFanout,
		OutputLoad:    outputLoad,
		cells:         make(map[string]CellType),
	}
}

// Add registers a cell type. Re-registering a name replaces it.
func (l *Library) Add(ct CellType) { l.cells[ct.Name] = ct }

// Cell returns the named cell type.
func (l *Library) Cell(name string) (CellType, bool) {
	ct, ok := l.cells[name]
	return ct, ok
}

// Names returns the number of registered cells.
func (l *Library) NumCells() int { return len(l.cells) }

// Default returns the module's generic library: inverter, buffer and
// 2-4 input NAND/NOR cells with delay parameters of order one. The
// absolute values are placeholders for the paper's unstated 1990s
// process constants; what matters for reproducing the paper's
// *behaviour* is the structure of the model (fixed t_int, load-
// proportional sizable part) and the relative ordering (more inputs =
// slower and heavier), both of which these numbers follow.
func Default() *Library {
	l := NewLibrary(1.0, 0.3, 0.2, 1.0)
	l.Add(CellType{Name: "inv", Fanin: 1, TInt: 0.5, CIn: 0.6})
	l.Add(CellType{Name: "buf", Fanin: 1, TInt: 0.7, CIn: 0.5})
	l.Add(CellType{Name: "nand2", Fanin: 2, TInt: 0.8, CIn: 1.0})
	l.Add(CellType{Name: "nor2", Fanin: 2, TInt: 0.9, CIn: 1.1})
	l.Add(CellType{Name: "nand3", Fanin: 3, TInt: 1.0, CIn: 1.2,
		PinOffsets: []float64{0, 0.05, 0.1}})
	l.Add(CellType{Name: "nor3", Fanin: 3, TInt: 1.1, CIn: 1.3,
		PinOffsets: []float64{0, 0.05, 0.1}})
	l.Add(CellType{Name: "nand4", Fanin: 4, TInt: 1.2, CIn: 1.4,
		PinOffsets: []float64{0, 0.05, 0.1, 0.15}})
	l.Add(CellType{Name: "nor4", Fanin: 4, TInt: 1.3, CIn: 1.5,
		PinOffsets: []float64{0, 0.05, 0.1, 0.15}})
	// Non-inverting and XOR families cover ISCAS .bench netlists
	// (internally an extra stage, hence the larger t_int).
	l.Add(CellType{Name: "and2", Fanin: 2, TInt: 1.1, CIn: 1.0})
	l.Add(CellType{Name: "and3", Fanin: 3, TInt: 1.3, CIn: 1.2})
	l.Add(CellType{Name: "and4", Fanin: 4, TInt: 1.5, CIn: 1.4})
	l.Add(CellType{Name: "or2", Fanin: 2, TInt: 1.2, CIn: 1.1})
	l.Add(CellType{Name: "or3", Fanin: 3, TInt: 1.4, CIn: 1.3})
	l.Add(CellType{Name: "or4", Fanin: 4, TInt: 1.6, CIn: 1.5})
	l.Add(CellType{Name: "xor2", Fanin: 2, TInt: 1.6, CIn: 1.8})
	l.Add(CellType{Name: "xnor2", Fanin: 2, TInt: 1.6, CIn: 1.8})
	return l
}

// PaperTree returns the library used for the Table 2 / Table 3 tree
// experiments: a single NAND2 cell whose constants were calibrated
// (internal/bench, CalibrateTree) so the Figure 3 tree reproduces the
// paper's anchors: unsized mu/sigma 7.38/0.82 vs the paper's
// 7.4/0.811, fully-sized mu 5.39 at SumS = 21 vs 5.4/21, and the
// Table 3 min-area speed-factor pattern.
func PaperTree() *Library {
	l := NewLibrary(1.0, 0.845918116422389, 0, 0.18312769990508404)
	l.Add(CellType{Name: "nand2", Fanin: 2, TInt: 1.2157916775901505, CIn: 0.14950378854004523})
	return l
}

// SigmaModel maps a gate's mean delay to its delay variance. The
// sizing formulation works in variances (w = sigma^2) to stay smooth,
// so the interface exposes the variance and its derivatives with
// respect to the mean.
type SigmaModel interface {
	// Sigma returns f(mu).
	Sigma(mu float64) float64
	// DSigma returns df/dmu.
	DSigma(mu float64) float64
	// D2Sigma returns d^2f/dmu^2.
	D2Sigma(mu float64) float64
	// Var returns w = f(mu)^2.
	Var(mu float64) float64
	// DVar returns dw/dmu.
	DVar(mu float64) float64
	// D2Var returns d^2w/dmu^2.
	D2Var(mu float64) float64
}

// Proportional is the paper's sigma model sigma = K * mu (the
// experiments use K = 0.25). Its variance K^2 mu^2 is a smooth
// quadratic, which is why the paper prefers the squared form.
type Proportional struct{ K float64 }

// Sigma implements SigmaModel.
func (p Proportional) Sigma(mu float64) float64 { return p.K * mu }

// DSigma implements SigmaModel.
func (p Proportional) DSigma(float64) float64 { return p.K }

// D2Sigma implements SigmaModel.
func (p Proportional) D2Sigma(float64) float64 { return 0 }

// Var implements SigmaModel.
func (p Proportional) Var(mu float64) float64 { return p.K * p.K * mu * mu }

// DVar implements SigmaModel.
func (p Proportional) DVar(mu float64) float64 { return 2 * p.K * p.K * mu }

// D2Var implements SigmaModel.
func (p Proportional) D2Var(mu float64) float64 { return 2 * p.K * p.K }

// Affine is sigma = A + B*mu, a strictly positive uncertainty floor
// plus a proportional part; useful for modeling wire-dominated
// uncertainty that sizing cannot remove.
type Affine struct{ A, B float64 }

// Sigma implements SigmaModel.
func (a Affine) Sigma(mu float64) float64 { return a.A + a.B*mu }

// DSigma implements SigmaModel.
func (a Affine) DSigma(float64) float64 { return a.B }

// D2Sigma implements SigmaModel.
func (a Affine) D2Sigma(float64) float64 { return 0 }

// Var implements SigmaModel.
func (a Affine) Var(mu float64) float64 {
	s := a.A + a.B*mu
	return s * s
}

// DVar implements SigmaModel.
func (a Affine) DVar(mu float64) float64 { return 2 * a.B * (a.A + a.B*mu) }

// D2Var implements SigmaModel.
func (a Affine) D2Var(mu float64) float64 { return 2 * a.B * a.B }

// Constant is a mean-independent sigma, degenerating the statistical
// model to fixed per-gate uncertainty.
type Constant struct{ S float64 }

// Sigma implements SigmaModel.
func (c Constant) Sigma(float64) float64 { return c.S }

// DSigma implements SigmaModel.
func (c Constant) DSigma(float64) float64 { return 0 }

// D2Sigma implements SigmaModel.
func (c Constant) D2Sigma(float64) float64 { return 0 }

// Var implements SigmaModel.
func (c Constant) Var(float64) float64 { return c.S * c.S }

// DVar implements SigmaModel.
func (c Constant) DVar(float64) float64 { return 0 }

// D2Var implements SigmaModel.
func (c Constant) D2Var(float64) float64 { return 0 }

// Zero is the deterministic limit sigma = 0, used by the
// deterministic sizing baseline.
type Zero struct{}

// Sigma implements SigmaModel.
func (Zero) Sigma(float64) float64 { return 0 }

// DSigma implements SigmaModel.
func (Zero) DSigma(float64) float64 { return 0 }

// D2Sigma implements SigmaModel.
func (Zero) D2Sigma(float64) float64 { return 0 }

// Var implements SigmaModel.
func (Zero) Var(float64) float64 { return 0 }

// DVar implements SigmaModel.
func (Zero) DVar(float64) float64 { return 0 }

// D2Var implements SigmaModel.
func (Zero) D2Var(float64) float64 { return 0 }

// ResolvedSigma is a SigmaModel's Var and DVar resolved once for a
// sweep, so the per-gate calls inline instead of dispatching through
// the interface. The paper's Proportional model takes a fast path on
// precomputed K*K and 2*K*K, multiplied in Proportional's own
// association, and every other model calls through the interface, so
// both are bitwise what the model's own methods return. Resolve at
// the start of each sweep, not once per Model: callers assign
// Model.Sigma after Bind.
type ResolvedSigma struct {
	prop    bool       // m is a Proportional: use kk and kk2
	kk, kk2 float64    // K*K and 2*K*K
	m       SigmaModel // every other model
}

// ResolveSigma resolves m for a sweep.
func ResolveSigma(m SigmaModel) ResolvedSigma {
	if p, ok := m.(Proportional); ok {
		return ResolvedSigma{prop: true, kk: p.K * p.K, kk2: 2 * p.K * p.K}
	}
	return ResolvedSigma{m: m}
}

// Var returns the resolved model's Var(mu).
func (r *ResolvedSigma) Var(mu float64) float64 {
	if r.prop {
		return r.kk * mu * mu
	}
	return r.m.Var(mu)
}

// DVar returns the resolved model's DVar(mu).
func (r *ResolvedSigma) DVar(mu float64) float64 {
	if r.prop {
		return r.kk2 * mu
	}
	return r.m.DVar(mu)
}

// ValidateSigmaModel checks basic sanity of a model over a mean range:
// non-negative sigma and Var consistent with Sigma.
func ValidateSigmaModel(m SigmaModel, lo, hi float64) error {
	for i := 0; i <= 64; i++ {
		mu := lo + (hi-lo)*float64(i)/64
		s := m.Sigma(mu)
		if s < 0 || math.IsNaN(s) {
			return fmt.Errorf("delay: sigma model returns %v at mu=%v", s, mu)
		}
		if w := m.Var(mu); math.Abs(w-s*s) > 1e-9*(1+s*s) {
			return fmt.Errorf("delay: Var(%v)=%v inconsistent with Sigma^2=%v", mu, w, s*s)
		}
	}
	return nil
}
