package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

func synthModel(t testing.TB, profile string, seed uint64) *timing.Model {
	t.Helper()
	c, err := synth.GenerateNamed(profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	return timing.NewModel(c, timing.DefaultParams())
}

func benchModel(t testing.TB, src, name string) *timing.Model {
	t.Helper()
	c, err := benchfmt.ParseString(src, name, true)
	if err != nil {
		t.Fatal(err)
	}
	return timing.NewModel(c, timing.DefaultParams())
}

func TestRegistry(t *testing.T) {
	if got := Names(); !reflect.DeepEqual(got, []string{"analytic", "mc"}) {
		t.Fatalf("Names() = %v, want [analytic mc]", got)
	}
	for _, name := range []string{"", "mc", "analytic"} {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if Known("bogus") {
		t.Error("Known(bogus) = true")
	}
	m := synthModel(t, "mini", 1)
	eng, err := New("", m)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != DefaultName {
		t.Errorf("New(\"\").Name() = %q, want %q", eng.Name(), DefaultName)
	}
	if _, err := New("bogus", m); err == nil {
		t.Fatal("New(bogus) succeeded")
	}
}

// TestMCBitIdentity pins the MC engine to the underlying kernels: the
// adapter must forward verbatim, so every statistic is bit-identical
// to calling the Model's ...Ctx methods directly, which is what the
// non-engine call sites do. The second input is a ragged sample count
// (not a multiple of the block width) under an explicit worker bound.
func TestMCBitIdentity(t *testing.T) {
	for _, in := range []struct {
		profile     string
		circuitSeed uint64
		n           int
		seed        uint64
		workers     int
	}{
		{"small", 7, 2000, 42, 0},
		{"mini", 3, 37, 5, 2},
	} {
		m := synthModel(t, in.profile, in.circuitSeed)
		checkMCBitIdentity(t, m, in.n, in.seed, in.workers)
	}
}

func checkMCBitIdentity(t *testing.T, m *timing.Model, n int, seed uint64, workers int) {
	t.Helper()
	eng := NewMC(m)
	ctx := context.Background()

	sta, err := eng.STA(ctx, n, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.MonteCarloSTACtx(ctx, n, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	if sta.CircuitDelay.Mean() != ref.CircuitDelay.Mean() || sta.CircuitDelay.Std() != ref.CircuitDelay.Std() {
		t.Error("STA circuit delay differs from MonteCarloSTACtx")
	}
	for i := range sta.Arrivals {
		if sta.Arrivals[i].Quantile(0.9) != ref.Arrivals[i].Quantile(0.9) {
			t.Fatalf("arrival %d differs", i)
		}
	}

	cr, err := eng.Criticality(ctx, n, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	crRef, err := m.MonteCarloCriticalityCtx(ctx, n, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr.Prob, crRef.Prob) {
		t.Error("Criticality differs from MonteCarloCriticalityCtx")
	}

	arcs := longestStructuralPath(m)
	tl, err := eng.TimingLength(ctx, arcs, n, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	tlRef, err := m.TimingLengthCtx(ctx, arcs, n, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl.(*dist.Empirical).Samples(), tlRef.Samples()) {
		t.Error("TimingLength differs from TimingLengthCtx")
	}

	for _, q := range []float64{0.5, 0.99} {
		clk, err := eng.SuggestClock(ctx, q, n, rng.Derive(seed, 1), workers)
		if err != nil {
			t.Fatal(err)
		}
		clkRef, err := m.SuggestClockCtx(ctx, q, n, rng.Derive(seed, 1), workers)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(clk) != math.Float64bits(clkRef) {
			t.Errorf("q=%v: SuggestClock %v != SuggestClockCtx %v", q, clk, clkRef)
		}
	}
}

// TestMCZeroSamples: the Monte-Carlo methods that build an empirical
// distribution reject nSamples < 1 with an error instead of handing an
// empty sample set to dist.NewEmpirical (which panics). Criticality's
// zero-sample contract is the zero-value estimate, tested in
// internal/timing.
func TestMCZeroSamples(t *testing.T) {
	eng := NewMC(synthModel(t, "mini", 1))
	ctx := context.Background()
	arcs := longestStructuralPath(eng.m)
	for _, tc := range []struct {
		name string
		call func(n int) error
	}{
		{"STA", func(n int) error { _, err := eng.STA(ctx, n, 7, 0); return err }},
		{"TimingLength", func(n int) error { _, err := eng.TimingLength(ctx, arcs, n, 7, 0); return err }},
		{"SuggestClock", func(n int) error { _, err := eng.SuggestClock(ctx, 0.95, n, 7, 0); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{0, -1} {
				if err := tc.call(n); err == nil {
					t.Errorf("nSamples=%d: err = nil", n)
				}
			}
			if err := tc.call(1); err != nil {
				t.Errorf("nSamples=1: %v", err)
			}
		})
	}
}

// longestStructuralPath walks back from the first output along each
// gate's nominally latest fan-in, collecting the arc sequence — a
// convenient real path for TimingLength tests.
func longestStructuralPath(m *timing.Model) []circuit.ArcID {
	arr := m.ArrivalTimes(m.NominalInstance())
	var arcs []circuit.ArcID
	g := m.C.Outputs[0]
	for len(m.C.Gates[g].Fanin) > 0 {
		best := 0
		for k, fi := range m.C.Gates[g].Fanin {
			if arr[fi] > arr[m.C.Gates[g].Fanin[best]] {
				best = k
			}
			_ = fi
		}
		arcs = append(arcs, m.C.Gates[g].InArcs[best])
		g = m.C.Gates[g].Fanin[best]
	}
	// Reverse into launch-to-capture order (TimingLength is
	// order-independent, but paths read better forward).
	for i, j := 0, len(arcs)-1; i < j; i, j = i+1, j-1 {
		arcs[i], arcs[j] = arcs[j], arcs[i]
	}
	return arcs
}
