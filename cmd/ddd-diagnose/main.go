// ddd-diagnose runs one complete delay-defect diagnosis case with a
// full trace: it injects a random (or specified) defect into a sampled
// circuit instance, generates diagnostic patterns through the fault
// site, observes the behavior matrix at the cut-off period, prunes the
// suspects, builds the probabilistic fault dictionary, and prints the
// ranking of every diagnosis method.
//
// Usage:
//
//	ddd-diagnose -profile s1196 [-case 0] [-arc 123] [-size 1.2] [-k 10] [-timings]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tsim"
)

func main() {
	profile := flag.String("profile", "s1196", "synthetic circuit profile")
	circuitSeed := flag.Uint64("circuit-seed", 2003, "circuit generation seed")
	caseSeed := flag.Uint64("case", 0, "case seed (selects instance and random defect)")
	arcFlag := flag.Int("arc", -1, "defect arc (-1 = random)")
	sizeFlag := flag.Float64("size", 0, "defect size (0 = random from the paper's model)")
	maxPats := flag.Int("patterns", 12, "max diagnostic patterns")
	samples := flag.Int("samples", 128, "dictionary Monte-Carlo samples")
	k := flag.Int("k", 10, "candidates to print")
	quantile := flag.Float64("clk-quantile", 0.9, "cut-off quantile of the targeted path delay")
	vcdOut := flag.String("vcd", "", "dump the first failing pattern's waveform (with the defect) to this VCD file")
	timings := flag.Bool("timings", false, "per-stage wall-time breakdown (stderr)")
	flag.Parse()

	if err := run(*profile, *circuitSeed, *caseSeed, *arcFlag, *sizeFlag, *maxPats, *samples, *k, *quantile, *vcdOut, *timings); err != nil {
		fmt.Fprintln(os.Stderr, "ddd-diagnose:", err)
		os.Exit(1)
	}
}

func run(profile string, circuitSeed, caseSeed uint64, arcFlag int, sizeFlag float64, maxPats, samples, k int, quantile float64, vcdOut string, timings bool) error {
	st := obs.NewStages()
	if timings {
		defer func() {
			if err := st.WriteTable(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "ddd-diagnose:", err)
			}
		}()
	}
	c, err := repro.GenerateCircuit(profile, circuitSeed)
	if err != nil {
		return err
	}
	m := repro.NewTimingModel(c, repro.DefaultTimingParams())
	inj := repro.NewInjector(c, m)
	fmt.Printf("circuit %s: %s\n", c.Name, c.Stats())

	r := rng.New(rng.Derive(caseSeed, 0xd1a6))
	df := inj.Sample(r)
	if arcFlag >= 0 {
		df.Arc = repro.ArcID(arcFlag)
	}
	if sizeFlag > 0 {
		df.Size = sizeFlag
	}
	a := c.Arcs[df.Arc]
	fmt.Printf("injected %v: %s -> %s (pin %d)\n", df, c.Gates[a.From].Name, c.Gates[a.To].Name, a.Pin)

	stop := st.Start("atpg")
	tests := repro.DiagnosticPatterns(m, df.Arc, maxPats, rng.Derive(caseSeed, 1))
	stop(int64(len(tests)))
	if len(tests) == 0 {
		return fmt.Errorf("no diagnostic patterns found for arc %d", df.Arc)
	}
	fmt.Printf("generated %d diagnostic patterns:\n", len(tests))
	pats := make([]repro.PatternPair, len(tests))
	clk := 0.0
	stop = st.Start("clk_select")
	for i, tc := range tests {
		pats[i] = tc.Pair
		crit := "non-robust"
		if tc.Robust {
			crit = "robust"
		}
		fmt.Printf("  v%-2d %-10s target path len=%d nominal=%.3f\n", i, crit, len(tc.Path.Arcs), tc.Path.Nominal)
		tl, err := m.TimingLengthCtx(context.Background(), tc.Path.Arcs, 300, rng.Derive(caseSeed, 2), 0)
		if err != nil {
			return err
		}
		if q := tl.Quantile(quantile); q > clk {
			clk = q
		}
	}
	stop(int64(len(tests)))
	fmt.Printf("cut-off period clk = %.3f (q%.2f of the longest targeted path)\n\n", clk, quantile)

	inst := m.SampleInstanceSeeded(caseSeed, 1_000_000)
	stop = st.Start("behavior_sim")
	b := repro.SimulateBehavior(c, inst, pats, df, clk)
	stop(int64(len(pats)))
	fmt.Printf("behavior matrix B (%d outputs x %d patterns), %d failing entries:\n%s\n",
		b.Rows, b.Cols, b.FailCount(), b)
	if !b.AnyFailure() {
		return fmt.Errorf("the defect escaped at this clock; try a larger -size or lower -clk-quantile")
	}

	if vcdOut != "" {
		if j := b.FailingPatterns(); len(j) > 0 {
			f, err := os.Create(vcdOut)
			if err != nil {
				return err
			}
			opts := tsim.Quiescent()
			opts.RecordWaveforms = true
			opts.DefectArc = df.Arc
			opts.DefectExtra = df.Size
			res := tsim.Simulate(c, inst.Delays, pats[j[0]], opts)
			if err := tsim.WriteVCD(f, c, res, 1000); err != nil {
				f.Close()
				return err
			}
			f.Close()
			fmt.Printf("waveform of failing pattern v%d written to %s\n\n", j[0], vcdOut)
		}
	}

	stop = st.Start("suspects")
	suspects := repro.SuspectArcs(c, pats, b)
	stop(int64(len(suspects)))
	fmt.Printf("suspect arcs after cause-effect pruning: %d\n", len(suspects))
	truthIn := false
	for _, s := range suspects {
		if s == df.Arc {
			truthIn = true
		}
	}
	fmt.Printf("true arc in suspect set: %v\n\n", truthIn)

	stop = st.Start("dict_build")
	dict, err := repro.BuildDictionary(m, pats, suspects, repro.DictConfig{
		Clk:         clk,
		Samples:     samples,
		Seed:        rng.Derive(caseSeed, 4),
		Incremental: true,
		SizeDist:    inj.AssumedSizeDist(),
	})
	stop(int64(samples))
	if err != nil {
		return err
	}
	stop = st.Start("diagnose")
	defer func() { stop(int64(len(repro.Methods))) }()
	for _, method := range repro.Methods {
		ranked := dict.Diagnose(b, method)
		fmt.Printf("%s ranking (top %d):\n", method, k)
		n := k
		if n > len(ranked) {
			n = len(ranked)
		}
		for i, rk := range ranked[:n] {
			mark := " "
			if rk.Arc == df.Arc {
				mark = " <== injected defect"
			}
			ra := c.Arcs[rk.Arc]
			fmt.Printf("  %2d. arc %-5d %s->%s score=%.6g%s\n",
				i+1, rk.Arc, c.Gates[ra.From].Name, c.Gates[ra.To].Name, rk.Score, mark)
		}
		if pos := rankOf(ranked, df.Arc); pos > 0 {
			fmt.Printf("  true defect ranked %d of %d\n\n", pos, len(ranked))
		} else {
			fmt.Printf("  true defect not in the suspect set\n\n")
		}
	}
	return nil
}

func rankOf(ranked []repro.Ranked, truth repro.ArcID) int {
	for i, rk := range ranked {
		if rk.Arc == truth {
			return i + 1
		}
	}
	return 0
}
