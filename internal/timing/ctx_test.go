package timing

import (
	"context"
	"testing"

	"repro/internal/synth"
)

func ctxTestModel(t *testing.T) *Model {
	t.Helper()
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(c, DefaultParams())
}

// mustSTA runs MonteCarloSTACtx on a background context, failing the
// test on error.
func mustSTA(t testing.TB, m *Model, nSamples int, seed uint64, workers int) *STAResult {
	t.Helper()
	res, err := m.MonteCarloSTACtx(context.Background(), nSamples, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustCriticality runs MonteCarloCriticalityCtx on a background
// context, failing the test on error.
func mustCriticality(t testing.TB, m *Model, nSamples int, seed uint64, workers int) *Criticality {
	t.Helper()
	cr, err := m.MonteCarloCriticalityCtx(context.Background(), nSamples, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// mustSuggestClock runs SuggestClockCtx on a background context with
// all CPUs, failing the test on error.
func mustSuggestClock(t testing.TB, m *Model, q float64, nSamples int, seed uint64) float64 {
	t.Helper()
	clk, err := m.SuggestClockCtx(context.Background(), q, nSamples, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return clk
}

// TestMonteCarloSTACtxMatchesPlain pins MonteCarloSTACtx to the plain
// one-instance-at-a-time reference loop (scalarSTA).
func TestMonteCarloSTACtxMatchesPlain(t *testing.T) {
	m := ctxTestModel(t)
	_, delays := scalarSTA(m, 64, 7)
	sortFloats(delays)
	viaCtx, err := m.MonteCarloSTACtx(context.Background(), 64, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(delays, viaCtx.CircuitDelay.Samples()); !ok {
		t.Errorf("ctx variant diverged at sorted sample %d", i)
	}
}

func TestMonteCarloSTACtxCancelled(t *testing.T) {
	m := ctxTestModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := m.MonteCarloSTACtx(ctx, 512, 7, 2)
	if err == nil {
		t.Fatal("err = nil on a dead context")
	}
	if res != nil {
		t.Error("cancelled run returned a partial STAResult")
	}
}

// TestMonteCarloCriticalityCtxMatchesPlain pins
// MonteCarloCriticalityCtx to the plain one-instance-at-a-time
// reference loop (scalarCriticalityCounts).
func TestMonteCarloCriticalityCtxMatchesPlain(t *testing.T) {
	m := ctxTestModel(t)
	counts := scalarCriticalityCounts(m, 64, 11)
	viaCtx, err := m.MonteCarloCriticalityCtx(context.Background(), 64, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if want := float64(c) / 64; viaCtx.Prob[i] != want { //lint:ignore floateq exact int64 counts over one division must reproduce bit-identical probabilities
			t.Fatalf("ctx variant diverged at arc %d: %v vs %v", i, viaCtx.Prob[i], want)
		}
	}
}

func TestMonteCarloCriticalityCtxCancelled(t *testing.T) {
	m := ctxTestModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cr, err := m.MonteCarloCriticalityCtx(ctx, 4096, 11, 2)
	if err == nil {
		t.Fatal("err = nil on a dead context")
	}
	if cr != nil {
		t.Error("cancelled run returned a partial Criticality")
	}
}

func TestMonteCarloCriticalityCtxZeroSamples(t *testing.T) {
	m := ctxTestModel(t)
	cr, err := m.MonteCarloCriticalityCtx(context.Background(), 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cr == nil || len(cr.Prob) != len(m.C.Arcs) {
		t.Fatal("zero-sample call must return the zero-value Criticality")
	}
	for i, p := range cr.Prob {
		if p != 0 {
			t.Fatalf("Prob[%d] = %v, want 0", i, p)
		}
	}
}
