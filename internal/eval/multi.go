package eval

import (
	"context"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/dist"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// MultiCaseResult records one multi-defect diagnosis case (the paper's
// future-work item 3: relax the single-defect assumption).
type MultiCaseResult struct {
	Instance int
	Truth    defect.MultiDefect
	Escaped  bool
	Suspects int
	// TruthsInSuspects counts injected arcs that survived pruning.
	TruthsInSuspects int
	// SingleTopKHits counts injected arcs in the single-shot AlgRev
	// top-K (K = number of injected defects × 3).
	SingleTopKHits int
	// IterativeHits counts injected arcs named by the iterative
	// peel-and-re-diagnose loop.
	IterativeHits int
	Rounds        int
}

// MultiResult aggregates a multi-defect experiment.
type MultiResult struct {
	Config   Config
	NDefects int
	Cases    []MultiCaseResult
}

// RecallSingle returns the fraction of injected defects recovered by
// the plain single-defect top-K answer.
func (r *MultiResult) RecallSingle() float64 {
	return r.recall(func(c MultiCaseResult) int { return c.SingleTopKHits })
}

// RecallIterative returns the fraction recovered by the iterative loop.
func (r *MultiResult) RecallIterative() float64 {
	return r.recall(func(c MultiCaseResult) int { return c.IterativeHits })
}

func (r *MultiResult) recall(hits func(MultiCaseResult) int) float64 {
	total, got := 0, 0
	for _, c := range r.Cases {
		total += len(c.Truth)
		got += hits(c)
	}
	if total == 0 {
		return 0
	}
	return float64(got) / float64(total)
}

// RunMultiDefect runs the multiple-defect extension experiment:
// nDefects simultaneous defects per die, patterns generated through
// every injected site (the diagnosis still must not know which sites
// those are — the dictionary ranks all suspects), a single-defect
// dictionary, and two answers per case: the single-shot top-K and the
// iterative peeling loop.
func RunMultiDefect(cfg Config, nDefects int) (*MultiResult, error) {
	if nDefects < 1 {
		return nil, fmt.Errorf("eval: nDefects = %d", nDefects)
	}
	c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		return nil, err
	}
	if cfg.Timing == (timing.Params{}) {
		cfg.Timing = timing.DefaultParams()
	}
	m := timing.NewModel(c, cfg.Timing)
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	res := &MultiResult{Config: cfg, NDefects: nDefects}

	for i := 0; i < cfg.N; i++ {
		cs, err := runMultiCase(c, m, inj, cfg, nDefects, i)
		if err != nil {
			return nil, fmt.Errorf("eval: multi case %d: %w", i, err)
		}
		res.Cases = append(res.Cases, cs)
	}
	return res, nil
}

func runMultiCase(c *circuit.Circuit, m *timing.Model, inj *defect.Injector, cfg Config, nDefects, i int) (MultiCaseResult, error) {
	caseSeed := rng.DeriveN(cfg.Seed, 0x3117, uint64(i))
	r := rng.New(caseSeed)
	inst := m.SampleInstanceSeeded(cfg.Seed, uint64(2_000_000+i))
	truth := inj.SampleMulti(nDefects, r)
	cs := MultiCaseResult{Instance: i, Truth: truth}

	var pats []logicsim.PatternPair
	seen := make(map[string]bool)
	clk := 0.0
	perSite := cfg.MaxPatterns / nDefects
	if perSite < 2 {
		perSite = 2
	}
	for di, d := range truth {
		tests := atpg.DiagnosticPatterns(c, m.Nominal, d.Arc, perSite, rng.New(rng.DeriveN(caseSeed, 1, uint64(di))))
		for _, tc := range tests {
			if k := tc.Pair.String(); !seen[k] {
				seen[k] = true
				pats = append(pats, tc.Pair)
			}
			tl, err := m.TimingLengthCtx(context.Background(), tc.Path.Arcs, cfg.ClkSamples, rng.Derive(caseSeed, 2), 0)
			if err != nil {
				return cs, err
			}
			if q := tl.Quantile(cfg.ClkQuantile); q > clk {
				clk = q
			}
		}
	}
	if len(pats) == 0 {
		cs.Escaped = true
		return cs, nil
	}

	b := core.SimulateBehaviorMulti(c, inst.Delays, pats, truth, clk)
	if !b.AnyFailure() {
		cs.Escaped = true
		return cs, nil
	}
	strict, relaxed := core.SuspectArcsTiered(c, pats, b)
	suspects := append(append([]circuit.ArcID(nil), strict...), relaxed...)
	if cfg.MaxSuspects > 0 && len(suspects) > cfg.MaxSuspects {
		suspects = capSuspects(strict, relaxed, cfg.MaxSuspects, rng.New(rng.Derive(caseSeed, 3)))
	}
	cs.Suspects = len(suspects)
	for _, a := range suspects {
		if truth.Contains(a) {
			cs.TruthsInSuspects++
		}
	}
	if cs.TruthsInSuspects == 0 {
		return cs, nil
	}

	var sizeDist dist.Dist = inj.AssumedSizeDist()
	if cfg.AssumedSize != nil {
		sizeDist = cfg.AssumedSize
	}
	dict, err := core.BuildDictionary(m, pats, suspects, core.DictConfig{
		Clk:         clk,
		Samples:     cfg.DictSamples,
		Seed:        rng.Derive(caseSeed, 4),
		Workers:     cfg.Workers,
		Incremental: true,
		SizeDist:    sizeDist,
	})
	if err != nil {
		return cs, err
	}

	k := 3 * nDefects
	ranked := dict.Diagnose(b, core.AlgRev)
	if k > len(ranked) {
		k = len(ranked)
	}
	for _, rk := range ranked[:k] {
		if truth.Contains(rk.Arc) {
			cs.SingleTopKHits++
		}
	}
	rounds := dict.DiagnoseIterative(b, core.AlgRev, nDefects+1, 0.25)
	cs.Rounds = len(rounds)
	cs.IterativeHits = core.MultiHits(rounds, truth)
	return cs, nil
}
