package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Empirical is a distribution defined by a finite sample, as produced by
// Monte-Carlo statistical timing analysis. It is the concrete form of
// the arrival-time and timing-length random variables (Ar(o), TL(p)) in
// the paper's framework: the statistical simulator draws many circuit
// instances and the resulting per-instance values form the sample.
type Empirical struct {
	xs []float64 // sorted ascending
}

// NewEmpirical builds an Empirical distribution from sample values.
// The input slice is copied and sorted. It panics on an empty sample.
func NewEmpirical(samples []float64) *Empirical {
	if len(samples) == 0 {
		panic("dist: empty sample for Empirical")
	}
	xs := make([]float64, len(samples))
	copy(xs, samples)
	sort.Float64s(xs)
	return &Empirical{xs: xs}
}

// N returns the sample size.
func (e *Empirical) N() int { return len(e.xs) }

// Samples returns the sorted sample values. The slice is shared; callers
// must not mutate it.
func (e *Empirical) Samples() []float64 { return e.xs }

// Sample draws one value uniformly from the stored sample (bootstrap
// resampling).
func (e *Empirical) Sample(r *rand.Rand) float64 { return e.xs[r.IntN(len(e.xs))] }

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 {
	s := 0.0
	for _, x := range e.xs {
		s += x
	}
	return s / float64(len(e.xs))
}

// Variance returns the unbiased sample variance (0 for a single sample).
func (e *Empirical) Variance() float64 {
	n := len(e.xs)
	if n < 2 {
		return 0
	}
	m := e.Mean()
	s := 0.0
	for _, x := range e.xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// Std returns the sample standard deviation.
func (e *Empirical) Std() float64 { return math.Sqrt(e.Variance()) }

// Min returns the smallest sample value.
func (e *Empirical) Min() float64 { return e.xs[0] }

// Max returns the largest sample value.
func (e *Empirical) Max() float64 { return e.xs[len(e.xs)-1] }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between order statistics.
func (e *Empirical) Quantile(q float64) float64 {
	if q <= 0 {
		return e.xs[0]
	}
	if q >= 1 {
		return e.xs[len(e.xs)-1]
	}
	pos := q * float64(len(e.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return e.xs[lo]
	}
	frac := pos - float64(lo)
	return e.xs[lo]*(1-frac) + e.xs[hi]*frac
}

// CDF returns the empirical P(X <= x).
func (e *Empirical) CDF(x float64) float64 {
	// Count of samples <= x via binary search for the first index > x.
	n := sort.SearchFloat64s(e.xs, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(e.xs))
}

// Exceed returns the empirical critical probability P(X > x)
// (Definition D.6 with cut-off period x).
func (e *Empirical) Exceed(x float64) float64 { return 1 - e.CDF(x) }

func (e *Empirical) String() string {
	return fmt.Sprintf("Emp(n=%d, µ=%.4g, σ=%.4g)", e.N(), e.Mean(), e.Std())
}

// Histogram bins the sample into nbins equal-width bins over
// [Min, Max] and returns the bin left edges and normalized densities.
// With a degenerate sample (Min == Max) a single full bin is returned.
func (e *Empirical) Histogram(nbins int) (edges, density []float64) {
	if nbins < 1 {
		nbins = 1
	}
	lo, hi := e.Min(), e.Max()
	edges = make([]float64, nbins)
	density = make([]float64, nbins)
	if hi == lo { //lint:ignore floateq exact degenerate-sample guard; a tolerance would mis-bin nearly-degenerate samples
		edges[0] = lo
		density[0] = 1
		return edges, density
	}
	w := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	for _, x := range e.xs {
		b := int((x - lo) / w)
		if b >= nbins {
			b = nbins - 1
		}
		density[b]++
	}
	norm := float64(len(e.xs)) * w
	for i := range density {
		density[i] /= norm
	}
	return edges, density
}
