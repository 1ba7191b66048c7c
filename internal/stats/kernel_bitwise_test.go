package stats

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dist"
)

// The frozen kernels below are the Clark max bodies as they stood
// before Max2JacInto: math.Max for the shift, the tightness
// probabilities as 0.5*math.Erfc(∓α/√2) (which TestCDFPairBitwise pins
// equal to dist.CDFPair), pdf/(2θ) as a division and the Jacobian
// returned by value. The shipped kernels must match them bit for bit
// on every input, so no sweep, trajectory or golden can move.

const frozenThetaEps = 1e-12

func frozenNnegVar(v float64) float64 {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

func frozenMax2(a, b MV) MV {
	a.Var = frozenNnegVar(a.Var)
	b.Var = frozenNnegVar(b.Var)
	theta2 := a.Var + b.Var
	if theta2 <= frozenThetaEps*frozenThetaEps {
		switch {
		case a.Mu > b.Mu:
			return MV{Mu: a.Mu, Var: a.Var}
		case b.Mu > a.Mu:
			return MV{Mu: b.Mu, Var: b.Var}
		default:
			return MV{Mu: a.Mu, Var: math.Max(a.Var, b.Var)}
		}
	}
	theta := math.Sqrt(theta2)
	shift := math.Max(a.Mu, b.Mu)
	am := a.Mu - shift
	bm := b.Mu - shift
	alpha := (am - bm) / theta

	cdfP, cdfN := 0.5*math.Erfc(-alpha/dist.Sqrt2), 0.5*math.Erfc(alpha/dist.Sqrt2)
	pdf := dist.PDF(alpha)

	mu := am*cdfP + bm*cdfN + theta*pdf
	ex2 := (a.Var+am*am)*cdfP + (b.Var+bm*bm)*cdfN + (am+bm)*theta*pdf
	v := ex2 - mu*mu
	if v < 0 {
		v = 0
	}
	return MV{Mu: mu + shift, Var: v}
}

func frozenMax2Jac(a, b MV) (MV, Jac2x4) {
	a.Var = frozenNnegVar(a.Var)
	b.Var = frozenNnegVar(b.Var)
	theta2 := a.Var + b.Var
	if theta2 <= frozenThetaEps*frozenThetaEps {
		var j Jac2x4
		switch {
		case a.Mu > b.Mu:
			j[0][0], j[1][1] = 1, 1
			return MV{a.Mu, a.Var}, j
		case b.Mu > a.Mu:
			j[0][2], j[1][3] = 1, 1
			return MV{b.Mu, b.Var}, j
		default:
			j[0][0], j[0][2] = 0.5, 0.5
			j[1][1], j[1][3] = 0.5, 0.5
			return MV{a.Mu, math.Max(a.Var, b.Var)}, j
		}
	}
	theta := math.Sqrt(theta2)
	shift := math.Max(a.Mu, b.Mu)
	am := a.Mu - shift
	bm := b.Mu - shift
	alpha := (am - bm) / theta

	cdfP, cdfN := 0.5*math.Erfc(-alpha/dist.Sqrt2), 0.5*math.Erfc(alpha/dist.Sqrt2)
	pdf := dist.PDF(alpha)

	muS := am*cdfP + bm*cdfN + theta*pdf
	ex2 := (a.Var+am*am)*cdfP + (b.Var+bm*bm)*cdfN + (am+bm)*theta*pdf
	v := ex2 - muS*muS
	if v < 0 {
		v = 0
	}
	c := MV{Mu: muS + shift, Var: v}

	var j Jac2x4
	pdfOver2Theta := pdf / (2 * theta)
	j[0][0] = cdfP
	j[0][1] = pdfOver2Theta
	j[0][2] = cdfN
	j[0][3] = pdfOver2Theta

	da := am - muS
	db := bm - muS
	pdfOverTheta := pdf / theta
	j[1][0] = 2*cdfP*da + 2*a.Var*pdfOverTheta
	j[1][2] = 2*cdfN*db + 2*b.Var*pdfOverTheta
	varTerm := pdf * (theta*(da+db) - alpha*(a.Var-b.Var)) / (2 * theta2)
	j[1][1] = cdfP + varTerm
	j[1][3] = cdfN + varTerm
	return c, j
}

func frozenMax2SigmaJac(muA, sigmaA, muB, sigmaB float64) (muC, sigmaC float64, jac Jac2x4) {
	c, jv := frozenMax2Jac(MV{muA, sigmaA * sigmaA}, MV{muB, sigmaB * sigmaB})
	muC = c.Mu
	sigmaC = math.Sqrt(c.Var)
	den := 2 * math.Max(sigmaC, sigmaCFloor)
	jac[0][0] = jv[0][0]
	jac[0][1] = jv[0][1] * 2 * sigmaA
	jac[0][2] = jv[0][2]
	jac[0][3] = jv[0][3] * 2 * sigmaB
	jac[1][0] = jv[1][0] / den
	jac[1][1] = jv[1][1] * 2 * sigmaA / den
	jac[1][2] = jv[1][2] / den
	jac[1][3] = jv[1][3] * 2 * sigmaB / den
	return muC, sigmaC, jac
}

// sameFloat reports whether x and y are the same float64, telling ±0
// apart and treating every NaN as equal.
func sameFloat(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

func sameMV(x, y MV) bool { return sameFloat(x.Mu, y.Mu) && sameFloat(x.Var, y.Var) }

func sameJac(x, y *Jac2x4) bool {
	for r := range x {
		for c := range x[r] {
			if !sameFloat(x[r][c], y[r][c]) {
				return false
			}
		}
	}
	return true
}

// sameStep reports whether the compact step s holds the frozen
// Jacobian j bit for bit: each stored entry, and both sums the
// adjoints rebuild (written out as the sweeps' DVarA/DVarB and as
// the literal additions), so the tape's readers see j exactly.
func sameStep(s *Step, j *Jac2x4) bool {
	jac := s.Jac()
	return sameFloat(s[0], j[0][0]) && sameFloat(s[1], j[0][2]) &&
		sameFloat(s[2], j[0][1]) && sameFloat(s[2], j[0][3]) &&
		sameFloat(s[3], j[1][0]) && sameFloat(s[4], j[1][2]) &&
		sameFloat(s.DVarA(), j[1][1]) && sameFloat(s.DVarB(), j[1][3]) &&
		sameFloat(s[0]+s[5], j[1][1]) && sameFloat(s[1]+s[5], j[1][3]) &&
		sameJac(&jac, j)
}

// checkMax2Kernels compares Max2, Max2Jac, Max2JacInto, Max2StepInto
// and Max2SigmaJac on the operand pair (a, b) with the frozen bodies.
func checkMax2Kernels(t *testing.T, a, b MV) {
	t.Helper()
	want := frozenMax2(a, b)
	if got := Max2(a, b); !sameMV(got, want) {
		t.Fatalf("Max2(%v, %v) = %v, want %v", a, b, got, want)
	}
	wantC, wantJ := frozenMax2Jac(a, b)
	if c, j := Max2Jac(a, b); !sameMV(c, wantC) || !sameJac(&j, &wantJ) {
		t.Fatalf("Max2Jac(%v, %v) = %v %v, want %v %v", a, b, c, j, wantC, wantJ)
	}
	// A stale slot must be overwritten in full, as on a reused tape.
	j := Jac2x4{{7, 7, 7, 7}, {7, 7, 7, 7}}
	if c := Max2JacInto(a, b, &j); !sameMV(c, wantC) || !sameJac(&j, &wantJ) {
		t.Fatalf("Max2JacInto(%v, %v) = %v %v, want %v %v", a, b, c, j, wantC, wantJ)
	}
	// The compact step, over a stale slot as well.
	st := Step{7, 7, 7, 7, 7, 7}
	if c := Max2StepInto(a, b, &st); !sameMV(c, wantC) || !sameStep(&st, &wantJ) {
		t.Fatalf("Max2StepInto(%v, %v) = %v %v, want %v %v", a, b, c, st, wantC, wantJ)
	}
	// The sigma form takes any four floats; reuse the pair's fields.
	mu, sigma, sj := Max2SigmaJac(a.Mu, a.Var, b.Mu, b.Var)
	wmu, wsigma, wsj := frozenMax2SigmaJac(a.Mu, a.Var, b.Mu, b.Var)
	if !sameFloat(mu, wmu) || !sameFloat(sigma, wsigma) || !sameJac(&sj, &wsj) {
		t.Fatalf("Max2SigmaJac(%v, %v, %v, %v) = %v %v %v, want %v %v %v",
			a.Mu, a.Var, b.Mu, b.Var, mu, sigma, sj, wmu, wsigma, wsj)
	}
}

// skipArchErfc skips on the one platform whose math.Erfc is assembly
// rather than the pure-Go algorithm behind dist.CDFPair.
func skipArchErfc(t testing.TB) {
	if runtime.GOARCH == "s390x" {
		t.Skip("math.Erfc is an assembly routine on s390x")
	}
}

// neighbours returns x with its n nearest floats on each side.
func neighbours(x float64, n int) []float64 {
	xs := []float64{x}
	lo, hi := x, x
	for i := 0; i < n; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		xs = append(xs, lo, hi)
	}
	return xs
}

// alphaPair returns an operand pair whose α is exactly alpha at
// θ = theta, a power of two: the variances split θ² exactly and the
// mean gap alpha*theta is exact.
func alphaPair(alpha, theta, varShareA float64) (MV, MV) {
	v := theta * theta
	return MV{Mu: alpha * theta, Var: v * varShareA}, MV{Mu: 0, Var: v * (1 - varShareA)}
}

// pdfGuardAlpha returns the smallest α > 30 on the float grid with
// PDF(α)/theta below 2**-1021, the halving guard of Max2JacInto.
func pdfGuardAlpha(theta float64) float64 {
	below := func(x float64) bool { return dist.PDF(x)/theta < 0x1p-1021 }
	lo, hi := 30.0, 40.0 // below(lo) false, below(hi) true
	for math.Nextafter(lo, hi) != hi {
		mid := math.Float64frombits((math.Float64bits(lo) + math.Float64bits(hi)) / 2)
		if below(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// max2KernelEdges returns operand pairs on every branch boundary of
// the erfc core (|α|/√2 at 0.84375, 1.25, 1/0.35, 6 and 28, with
// Nextafter neighbours, both signs of α), around the pdf/θ halving
// guard, on exact ties, at the θ floor, on ±0 means and on NaN/±Inf
// means and variances.
func max2KernelEdges() [][2]MV {
	var ps [][2]MV
	add := func(a, b MV) { ps = append(ps, [2]MV{a, b}, [2]MV{b, a}) }
	for _, bound := range []float64{0.84375, 1.25, 1 / 0.35, 6, 28} {
		for _, y := range neighbours(bound, 1) {
			for _, alpha := range neighbours(y*dist.Sqrt2, 1) {
				for _, share := range []float64{0.5, 0.25} {
					add(alphaPair(alpha, 1, share))
					add(alphaPair(-alpha, 1, share))
				}
				add(alphaPair(alpha, 0x1p-20, 0.5))
			}
		}
	}
	for _, theta := range []float64{1, 0.5, 4, 0x1p-30} {
		for _, alpha := range neighbours(pdfGuardAlpha(theta), 3) {
			add(alphaPair(alpha, theta, 0.5))
			add(alphaPair(-alpha, theta, 0.75))
		}
	}
	// Deeper in the tail the quotient pdf/θ is subnormal and the
	// kernel divides; θ off a power of two makes 2θ's rounding matter.
	for _, alpha := range []float64{37.7, 38, 38.3, 38.6, 39, 39.5} {
		add(MV{Mu: alpha * math.Sqrt(3), Var: 1.5}, MV{Mu: 0, Var: 1.5})
		add(alphaPair(alpha, 1, 0.5))
	}
	floor := frozenThetaEps * frozenThetaEps
	for _, v := range neighbours(floor, 2) {
		add(MV{Mu: 1, Var: v}, MV{Mu: 1, Var: 0})
		add(MV{Mu: 1, Var: v}, MV{Mu: 1 + 1e-13, Var: 0})
		add(MV{Mu: 2, Var: v / 2}, MV{Mu: 2 - 3e-12, Var: v / 2})
	}
	negZero := math.Copysign(0, -1)
	for _, mus := range [][2]float64{{0, 0}, {0, negZero}, {negZero, 0}, {negZero, negZero}, {3, 3}, {-2.5, -2.5}} {
		for _, vars := range [][2]float64{{0, 0}, {1, 1}, {0.3, 2}, {0, 1e-30}, {negZero, 0}, {-1, 0.5}} {
			add(MV{mus[0], vars[0]}, MV{mus[1], vars[1]})
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	// The degenerate selector with NaN in play: a NaN mean falls
	// through both comparisons to the tie, a NaN variance clamps to 0.
	for _, other := range []MV{{1, 0}, {nan, 0}, {-inf, 0}, {1, 1e-30}} {
		add(MV{nan, 0}, other)
		add(MV{1, nan}, other)
		add(MV{nan, nan}, other)
	}
	specials := []float64{nan, inf, -inf, 0, 1, -1, math.MaxFloat64}
	for _, mu := range specials {
		for _, v := range specials {
			add(MV{mu, 1}, MV{0.5, v})
			add(MV{mu, v}, MV{mu, 0.5})
			add(MV{mu, v}, MV{-mu, v})
		}
	}
	return ps
}

// randomMax2Pair draws an operand pair whose α spreads log-uniformly
// over |α| in [1e-3, 45] with both signs, at variances from 1e-14 to
// 1e2 and means up to ±50, so every branch of the core is hit.
func randomMax2Pair(rng *rand.Rand) (MV, MV) {
	va := math.Pow(10, -14+16*rng.Float64())
	vb := math.Pow(10, -14+16*rng.Float64())
	if rng.Intn(16) == 0 {
		vb = 0
	}
	alpha := math.Pow(10, -3+math.Log10(45e3)*rng.Float64())
	if rng.Intn(2) == 0 {
		alpha = -alpha
	}
	base := 100 * (rng.Float64() - 0.5)
	return MV{Mu: base + alpha*math.Sqrt(va+vb), Var: va}, MV{Mu: base, Var: vb}
}

// TestMax2KernelsBitwise pins Max2, Max2Jac, Max2JacInto,
// Max2StepInto and Max2SigmaJac to the frozen kernel bodies bit for
// bit on every edge pair and on 10^6 random pairs.
func TestMax2KernelsBitwise(t *testing.T) {
	skipArchErfc(t)
	for _, p := range max2KernelEdges() {
		checkMax2Kernels(t, p[0], p[1])
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		a, b := randomMax2Pair(rng)
		checkMax2Kernels(t, a, b)
	}
}

// FuzzMax2Kernels searches for operand pairs where a shipped kernel
// departs from its frozen body by even one bit. `make fuzz-kernels`
// runs it.
func FuzzMax2Kernels(f *testing.F) {
	for _, p := range max2KernelEdges() {
		f.Add(p[0].Mu, p[0].Var, p[1].Mu, p[1].Var)
	}
	f.Fuzz(func(t *testing.T, muA, varA, muB, varB float64) {
		skipArchErfc(t)
		checkMax2Kernels(t, MV{muA, varA}, MV{muB, varB})
	})
}

// checkMax2StepPair compares each lane of Max2StepPair with
// Max2StepInto on the same operands: the returned moments and all six
// step entries, written over stale slots as on a reused tape.
func checkMax2StepPair(t *testing.T, a0, b0, a1, b1 MV) {
	t.Helper()
	var w0, w1 Step
	want0 := Max2StepInto(a0, b0, &w0)
	want1 := Max2StepInto(a1, b1, &w1)
	s0 := Step{7, 7, 7, 7, 7, 7}
	s1 := Step{-7, -7, -7, -7, -7, -7}
	c0, c1 := Max2StepPair(a0, b0, &s0, a1, b1, &s1)
	for i := range s0 {
		if !sameFloat(s0[i], w0[i]) || !sameFloat(s1[i], w1[i]) {
			t.Fatalf("Max2StepPair(%v, %v | %v, %v) steps %v | %v, want %v | %v",
				a0, b0, a1, b1, s0, s1, w0, w1)
		}
	}
	if !sameMV(c0, want0) || !sameMV(c1, want1) {
		t.Fatalf("Max2StepPair(%v, %v | %v, %v) = %v | %v, want %v | %v",
			a0, b0, a1, b1, c0, c1, want0, want1)
	}
}

// floorPairs returns operand pairs on the θ floor and its
// neighbourhood: the lanes that send Max2StepPair to the scalar
// kernel, and those just above them.
func floorPairs() [][2]MV {
	floor := thetaEps * thetaEps
	var ps [][2]MV
	for _, v := range neighbours(floor, 2) {
		ps = append(ps,
			[2]MV{{Mu: 1, Var: v}, {Mu: 1, Var: 0}},
			[2]MV{{Mu: 1, Var: v}, {Mu: 1 + 1e-13, Var: 0}},
			[2]MV{{Mu: 2 - 3e-12, Var: v / 2}, {Mu: 2, Var: v / 2}})
	}
	return append(ps, [2]MV{{Mu: 0, Var: 0}, {Mu: 0, Var: 0}}, [2]MV{{Mu: -1, Var: -1}, {Mu: 3, Var: 0}})
}

// max2PairSeeds pairs every kernel edge with an ordinary operand pair
// on the other lane, in both lane orders, each edge with the next one,
// and every θ-floor pair with an ordinary pair and with an edge, so
// mixed lanes (one on the floor, one not) are covered both ways.
func max2PairSeeds() [][4]MV {
	edges := max2KernelEdges()
	plain := [2]MV{{Mu: 1.5, Var: 0.3}, {Mu: 1.2, Var: 0.5}}
	var ss [][4]MV
	for i, e := range edges {
		next := edges[(i+1)%len(edges)]
		ss = append(ss,
			[4]MV{e[0], e[1], plain[0], plain[1]},
			[4]MV{plain[0], plain[1], e[0], e[1]},
			[4]MV{e[0], e[1], next[0], next[1]})
	}
	for i, f := range floorPairs() {
		e := edges[(7*i)%len(edges)]
		ss = append(ss,
			[4]MV{f[0], f[1], plain[0], plain[1]},
			[4]MV{plain[0], plain[1], f[0], f[1]},
			[4]MV{f[0], f[1], e[0], e[1]},
			[4]MV{e[0], e[1], f[0], f[1]},
			[4]MV{f[0], f[1], f[1], f[0]})
	}
	return ss
}

// TestMax2StepPairBitwise pins each lane of the two-lane kernel to
// Max2StepInto bit for bit on every seed of max2PairSeeds and on 10^6
// random lane pairs, one in 16 of them with a lane on the θ floor.
func TestMax2StepPairBitwise(t *testing.T) {
	skipArchErfc(t)
	for _, s := range max2PairSeeds() {
		checkMax2StepPair(t, s[0], s[1], s[2], s[3])
	}
	rng := rand.New(rand.NewSource(2))
	floors := floorPairs()
	for i := 0; i < 1_000_000; i++ {
		a0, b0 := randomMax2Pair(rng)
		a1, b1 := randomMax2Pair(rng)
		switch rng.Intn(32) {
		case 0:
			f := floors[rng.Intn(len(floors))]
			a0, b0 = f[0], f[1]
		case 1:
			f := floors[rng.Intn(len(floors))]
			a1, b1 = f[0], f[1]
		}
		checkMax2StepPair(t, a0, b0, a1, b1)
	}
}

// FuzzMax2StepPair searches for operand quadruples where a lane of
// Max2StepPair departs from Max2StepInto by even one bit. `make
// fuzz-kernels` runs it.
func FuzzMax2StepPair(f *testing.F) {
	for _, s := range max2PairSeeds() {
		f.Add(s[0].Mu, s[0].Var, s[1].Mu, s[1].Var, s[2].Mu, s[2].Var, s[3].Mu, s[3].Var)
	}
	f.Fuzz(func(t *testing.T, muA0, varA0, muB0, varB0, muA1, varA1, muB1, varB1 float64) {
		skipArchErfc(t)
		checkMax2StepPair(t, MV{muA0, varA0}, MV{muB0, varB0}, MV{muA1, varA1}, MV{muB1, varB1})
	})
}
