package dist

import "math"

// TruncatedBelowMoments returns the mean and standard deviation of a
// normal N(mu, sigma^2) truncated to [lo, +inf).
//
// Gate delays are physically non-negative; Monte Carlo validation can
// optionally draw from a delay distribution truncated at zero, and
// this helper quantifies how far such truncation moves the first two
// moments from the untruncated Gaussian the analytic model assumes.
func TruncatedBelowMoments(mu, sigma, lo float64) (tmu, tsigma float64) {
	if sigma == 0 {
		if mu >= lo {
			return mu, 0
		}
		return lo, 0
	}
	alpha := (lo - mu) / sigma
	// The kept mass 1-Phi(alpha), read as Phi(-alpha) so that it keeps
	// full precision in the upper tail instead of cancelling to zero.
	_, z := CDFPair(alpha)
	if z <= 0 {
		// Phi(-alpha) underflows (alpha beyond ~38): the truncated law
		// sits within sigma/alpha of the boundary; collapse onto it.
		return lo, 0
	}
	lambda := PDF(alpha) / z
	tmu = mu + sigma*lambda
	delta := lambda * (lambda - alpha)
	v := sigma * sigma * (1 - delta)
	if v < 0 {
		v = 0
	}
	return tmu, math.Sqrt(v)
}

// KSNormal returns the Kolmogorov-Smirnov distance between the
// empirical distribution of the sorted sample xs and the normal law n.
// The sample must be sorted ascending; the function does not check.
func KSNormal(sorted []float64, n Normal) float64 {
	m := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := n.CDF(x)
		lo := f - float64(i)/m
		hi := float64(i+1)/m - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}

// SampleMoments returns the mean and (population) standard deviation
// of xs using a numerically stable one-pass Welford accumulation.
func SampleMoments(xs []float64) (mean, sigma float64) {
	var m, m2 float64
	for i, x := range xs {
		d := x - m
		m += d / float64(i+1)
		m2 += d * (x - m)
	}
	if len(xs) == 0 {
		return 0, 0
	}
	return m, math.Sqrt(m2 / float64(len(xs)))
}
