package dist

import "math"

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 when fewer
// than two samples are given, NaN for an empty slice).
func Variance(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return math.NaN()
	case 1:
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Std returns the sample standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }
