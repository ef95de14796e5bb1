package eval

import (
	"context"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// The guardband curve quantifies the cut-off-period dial discussed in
// DESIGN.md §6: lowering clk (shmooing the tester faster) exposes more
// defects but also fails more defect-free dies. For a batch of sites
// with targeted patterns, it sweeps the clk quantile and measures
//
//   - escape rate: defective dies with an all-pass behavior matrix;
//   - false-alarm rate: defect-free dies with at least one failure.
//
// The diagnosis framework tolerates false alarms (M_crt models them),
// so the operating point is a sensitivity choice, not a correctness
// one — the curve shows what each choice buys.

// GuardbandPoint is one sweep sample.
type GuardbandPoint struct {
	Quantile   float64
	Escape     float64 // P(no failure | defect present)
	FalseAlarm float64 // P(some failure | defect free)
}

// GuardbandCurve sweeps the clk quantile over nCases defect sites.
func GuardbandCurve(cfg Config, quantiles []float64) ([]GuardbandPoint, error) {
	c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		return nil, err
	}
	if cfg.Timing == (timing.Params{}) {
		cfg.Timing = timing.DefaultParams()
	}
	m := timing.NewModel(c, cfg.Timing)
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())

	// Prepare the cases once; only clk varies across the sweep.
	type gbCase struct {
		inst *timing.Instance
		df   defect.Defect
		pats []logicsim.PatternPair
		tls  []float64 // per-case: sorted per-quantile lookup base (samples of the longest path)
	}
	var cases []gbCase
	for i := 0; i < cfg.N; i++ {
		caseSeed := rng.DeriveN(cfg.Seed, 0x6b, uint64(i))
		r := rng.New(caseSeed)
		df := inj.Sample(r)
		tests := atpg.DiagnosticPatterns(c, m.Nominal, df.Arc, cfg.MaxPatterns, rng.New(rng.Derive(caseSeed, 1)))
		if len(tests) == 0 {
			continue
		}
		pats := make([]logicsim.PatternPair, len(tests))
		var longest []float64
		best := -1.0
		for k, tc := range tests {
			pats[k] = tc.Pair
			if tc.Path.Nominal > best {
				best = tc.Path.Nominal
				tl, err := m.TimingLengthCtx(context.Background(), tc.Path.Arcs, cfg.ClkSamples, rng.Derive(caseSeed, 2), 0)
				if err != nil {
					return nil, fmt.Errorf("eval: guardband case %d: %w", i, err)
				}
				longest = tl.Samples()
			}
		}
		cases = append(cases, gbCase{
			inst: m.SampleInstanceSeeded(cfg.Seed, uint64(4_000_000+i)),
			df:   df,
			pats: pats,
			tls:  longest,
		})
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("eval: no diagnosable sites for the guardband sweep")
	}

	var out []GuardbandPoint
	for _, q := range quantiles {
		pt := GuardbandPoint{Quantile: q}
		for _, cs := range cases {
			clk := quantileOf(cs.tls, q)
			bad := core.SimulateBehavior(c, cs.inst.Delays, cs.pats, cs.df.Arc, cs.df.Size, clk)
			if !bad.AnyFailure() {
				pt.Escape++
			}
			good := core.SimulateBehavior(c, cs.inst.Delays, cs.pats, cs.df.Arc, 0, clk)
			if good.AnyFailure() {
				pt.FalseAlarm++
			}
		}
		pt.Escape /= float64(len(cases))
		pt.FalseAlarm /= float64(len(cases))
		out = append(out, pt)
	}
	return out, nil
}

// quantileOf returns the q-quantile of an (unsorted is fine —
// dist.Empirical sorts) sample slice without re-simulating.
func quantileOf(samples []float64, q float64) float64 {
	// samples from dist.Empirical.Samples() are already sorted.
	if len(samples) == 0 {
		return 0
	}
	idx := int(q * float64(len(samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}
