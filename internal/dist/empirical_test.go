package dist

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEmpiricalBasics(t *testing.T) {
	e := NewEmpirical([]float64{3, 1, 2, 5, 4})
	if e.N() != 5 {
		t.Fatalf("N = %d", e.N())
	}
	if e.Min() != 1 || e.Max() != 5 {
		t.Errorf("min/max = %v/%v", e.Min(), e.Max())
	}
	if e.Mean() != 3 {
		t.Errorf("mean = %v", e.Mean())
	}
	if !almostEq(e.Variance(), 2.5, 1e-12) {
		t.Errorf("variance = %v", e.Variance())
	}
}

func TestEmpiricalDoesNotAliasInput(t *testing.T) {
	in := []float64{2, 1}
	e := NewEmpirical(in)
	in[0] = 100
	if e.Max() != 2 {
		t.Errorf("Empirical aliased its input: max = %v", e.Max())
	}
}

func TestEmpiricalEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewEmpirical(nil) should panic")
		}
	}()
	NewEmpirical(nil)
}

func TestEmpiricalCDFExceed(t *testing.T) {
	e := NewEmpirical([]float64{1, 2, 3, 4})
	cases := []struct{ x, cdf float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.CDF(c.x); !almostEq(got, c.cdf, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.cdf)
		}
		if got := e.Exceed(c.x); !almostEq(got, 1-c.cdf, 1e-12) {
			t.Errorf("Exceed(%v) = %v, want %v", c.x, got, 1-c.cdf)
		}
	}
}

func TestEmpiricalQuantile(t *testing.T) {
	e := NewEmpirical([]float64{10, 20, 30, 40, 50})
	if q := e.Quantile(0); q != 10 {
		t.Errorf("q0 = %v", q)
	}
	if q := e.Quantile(1); q != 50 {
		t.Errorf("q1 = %v", q)
	}
	if q := e.Quantile(0.5); q != 30 {
		t.Errorf("median = %v", q)
	}
	if q := e.Quantile(0.25); q != 20 {
		t.Errorf("q25 = %v", q)
	}
	if q := e.Quantile(0.125); !almostEq(q, 15, 1e-12) {
		t.Errorf("q12.5 = %v, want 15 (interpolated)", q)
	}
}

func TestEmpiricalHistogram(t *testing.T) {
	e := NewEmpirical([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	edges, density := e.Histogram(3)
	if len(edges) != 3 || len(density) != 3 {
		t.Fatalf("bins = %d/%d", len(edges), len(density))
	}
	// Density integrates to 1.
	w := (e.Max() - e.Min()) / 3
	total := 0.0
	for _, d := range density {
		total += d * w
	}
	if !almostEq(total, 1, 1e-9) {
		t.Errorf("histogram mass = %v, want 1", total)
	}
	// Degenerate sample.
	d := NewEmpirical([]float64{7, 7, 7})
	_, dens := d.Histogram(4)
	if dens[0] != 1 {
		t.Errorf("degenerate histogram = %v", dens)
	}
}

func TestEmpiricalQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 1+r.IntN(100))
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		e := NewEmpirical(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := e.Quantile(q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalCDFExceedComplement(t *testing.T) {
	f := func(seed uint64, x float64) bool {
		r := rng.New(seed)
		xs := make([]float64, 1+r.IntN(50))
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		e := NewEmpirical(xs)
		x = math.Mod(math.Abs(x), 120)
		return math.Abs(e.CDF(x)+e.Exceed(x)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almostEq(Variance(xs), 5.0/3.0, 1e-12) {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Errorf("empty-slice stats should be NaN")
	}
	if Variance([]float64{5}) != 0 {
		t.Errorf("single-sample variance should be 0")
	}
}
