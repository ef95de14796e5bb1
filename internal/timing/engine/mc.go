package engine

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/timing"
)

// MC is the Monte-Carlo engine: a thin adapter over the blocked
// sampling kernels (MonteCarloSTACtx, MonteCarloCriticalityCtx,
// TimingLengthCtx, SuggestClockCtx). Every method forwards its
// arguments verbatim, so selecting this engine produces bit-identical
// numbers to calling the Model methods directly — the golden
// dictionaries, Table-I rows and quantile tests all hold unchanged
// under `-engine mc`.
type MC struct {
	m *timing.Model
}

// NewMC returns the Monte-Carlo engine over m.
func NewMC(m *timing.Model) *MC { return &MC{m: m} }

// Name returns "mc".
func (e *MC) Name() string { return "mc" }

// STA runs Monte-Carlo statistical STA and wraps the empirical
// per-output distributions in the engine-agnostic surface.
func (e *MC) STA(ctx context.Context, nSamples int, seed uint64, workers int) (*timing.STADist, error) {
	res, err := e.m.MonteCarloSTACtx(ctx, nSamples, seed, workers)
	if err != nil {
		return nil, err
	}
	out := &timing.STADist{
		Arrivals:     make([]dist.Distribution, len(res.Arrivals)),
		CircuitDelay: res.CircuitDelay,
	}
	for i, a := range res.Arrivals {
		out.Arrivals[i] = a
	}
	return out, nil
}

// Criticality estimates per-arc critical-path probabilities by sampled
// backtraces.
func (e *MC) Criticality(ctx context.Context, nSamples int, seed uint64, workers int) (*timing.Criticality, error) {
	return e.m.MonteCarloCriticalityCtx(ctx, nSamples, seed, workers)
}

// TimingLength estimates the statistical timing length of a path by
// Monte Carlo.
func (e *MC) TimingLength(ctx context.Context, arcs []circuit.ArcID, nSamples int, seed uint64, workers int) (dist.Distribution, error) {
	return e.m.TimingLengthCtx(ctx, arcs, nSamples, seed, workers)
}

// SuggestClock returns the q-quantile of the sampled circuit-delay
// distribution.
func (e *MC) SuggestClock(ctx context.Context, q float64, nSamples int, seed uint64, workers int) (float64, error) {
	return e.m.SuggestClockCtx(ctx, q, nSamples, seed, workers)
}
