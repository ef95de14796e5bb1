package dist

import "math"

// Clark's approximation (C. E. Clark, "The Greatest of a Finite Set of
// Random Variables", Operations Research 1961) propagates normal
// approximations through MAX operations. It is the classic analytic
// alternative to Monte Carlo in statistical static timing analysis:
// MaxNormal is the MAX operator of the analytic timing engine
// (internal/timing/engine), which the repository runs as its fast STA
// mode and as an ablation baseline against the Monte-Carlo engine.

// stdNormPDF is the standard normal density φ(x).
func stdNormPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// stdNormCDF is the standard normal CDF Φ(x).
func stdNormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// MaxNormal returns Clark's moment-matched normal approximation of
// max(A, B) for jointly normal A, B with correlation rho, along with
// the tie probability P(A > B).
//
// Contract for the degenerate branch: theta² = Var(A−B) <= 0 means A
// and B are (numerically) perfectly correlated with equal spread, so
// A − B is the constant a.Mu − b.Mu and the max is whichever input
// has the larger mean. The tie probability is then exactly 1 when
// a.Mu > b.Mu, exactly 0 when a.Mu < b.Mu, and 1/2 at a.Mu == b.Mu —
// the two inputs are the same random variable, and downstream
// consumers (analytic criticality splits credit by tie probability)
// need the symmetric answer rather than an arbitrary winner-takes-all
// 1 or 0. The returned max distribution at the exact tie is `a`
// (== `b` in distribution).
func MaxNormal(a, b Normal, rho float64) (Normal, float64) {
	va, vb := a.Variance(), b.Variance()
	theta2 := va + vb - 2*rho*a.Sigma*b.Sigma
	if theta2 <= 0 {
		switch {
		case a.Mu > b.Mu:
			return a, 1
		case a.Mu < b.Mu:
			return b, 0
		default:
			return a, 0.5
		}
	}
	theta := math.Sqrt(theta2)
	alpha := (a.Mu - b.Mu) / theta
	phi := stdNormPDF(alpha)
	PhiA := stdNormCDF(alpha)  // P(A > B)
	PhiB := stdNormCDF(-alpha) // P(B > A)

	m1 := a.Mu*PhiA + b.Mu*PhiB + theta*phi
	m2 := (va+a.Mu*a.Mu)*PhiA + (vb+b.Mu*b.Mu)*PhiB + (a.Mu+b.Mu)*theta*phi
	v := m2 - m1*m1
	if v < 0 {
		v = 0
	}
	return Normal{Mu: m1, Sigma: math.Sqrt(v)}, PhiA
}
