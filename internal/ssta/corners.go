package ssta

import "repro/internal/delay"

// CornerResult holds the traditional best/typical/worst-case timing
// the paper's introduction positions statistical analysis against:
// every gate simultaneously at mu - k*sigma (best), mu (typical) or
// mu + k*sigma (worst). The paper (after its refs [1], [2]) points out
// that worst-case corners are "very pessimistic": all gates being
// simultaneously slow is a probability-zero event, and the statistical
// quantile mu_Tmax + k*sigma_Tmax sits far below the worst corner
// because independent per-gate deviations cancel along paths
// (sigma of a sum grows like sqrt(depth), not depth).
type CornerResult struct {
	K                    float64
	Best, Typical, Worst float64
	// StatQuantile is the statistical mu + k*sigma circuit quantile,
	// the apples-to-apples replacement for the worst corner.
	StatQuantile float64
	// Pessimism is Worst - StatQuantile: the margin the traditional
	// methodology wastes.
	Pessimism float64
}

// Corners runs the three deterministic corner sweeps plus the
// statistical sweep at quantile multiplier k. A non-finite k panics
// (see checkRiskFactor); the sign of k is ignored — corners are
// symmetric by construction, so Corners(m, S, -3) is Corners(m, S, 3),
// keeping the Best <= Worst invariant instead of silently swapping
// the corners' meanings. The three deterministic corners are the
// lanes of one KSweep at -k, 0 and k.
func Corners(m *delay.Model, S []float64, k float64) *CornerResult {
	checkRiskFactor(k, "Corners")
	if k < 0 {
		k = -k
	}
	res := &CornerResult{K: k}
	t := KSweep(m, S, []float64{-k, 0, k})
	res.Best, res.Typical, res.Worst = t[0], t[1], t[2]
	r := Analyze(m, S, false)
	res.StatQuantile = r.Tmax.Mu + k*r.Tmax.Sigma()
	res.Pessimism = res.Worst - res.StatQuantile
	return res
}
