// ddd-sta runs statistical static timing analysis on a circuit
// through a pluggable timing engine: arrival-time distributions per
// primary output, the circuit-delay distribution with quantiles,
// critical probabilities at a given clock, and per-arc statistical
// criticality. -engine mc (default) samples Monte-Carlo instances;
// -engine analytic answers in closed form (Clark moment matching,
// DESIGN.md §14) in a fraction of the time.
//
// Usage:
//
//	ddd-sta -profile s1196 [-engine mc|analytic] [-seed 2003] [-samples 2000] [-clk 25.0] [-workers N]
//	ddd-sta -bench circuit.bench
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro"
	"repro/internal/timing"
	tengine "repro/internal/timing/engine"
)

func main() {
	profile := flag.String("profile", "s1196", "synthetic circuit profile")
	seed := flag.Uint64("seed", 2003, "circuit generation seed")
	benchFile := flag.String("bench", "", ".bench netlist file (overrides -profile)")
	samples := flag.Int("samples", 2000, "Monte-Carlo instance samples")
	mcSeed := flag.Uint64("mc-seed", 7, "Monte-Carlo seed")
	workers := flag.Int("workers", 0, "Monte-Carlo worker goroutines (0 = NumCPU)")
	clk := flag.Float64("clk", 0, "cut-off period for critical probabilities (0 = 95% quantile)")
	top := flag.Int("top", 10, "outputs to list (slowest first)")
	engineName := flag.String("engine", "", "timing engine (mc|analytic; default mc)")
	flag.Parse()

	c, err := loadCircuit(*benchFile, *profile, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddd-sta:", err)
		os.Exit(1)
	}
	m := repro.NewTimingModel(c, repro.DefaultTimingParams())
	eng, err := tengine.New(*engineName, m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddd-sta:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	fmt.Printf("circuit %s: %s\n", c.Name, c.Stats())
	fmt.Printf("engine: %s\n", eng.Name())
	fmt.Printf("mean cell delay: %.4f\n\n", m.MeanCellDelay())

	res, err := eng.STA(ctx, *samples, *mcSeed, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddd-sta:", err)
		os.Exit(1)
	}
	cd := res.CircuitDelay
	fmt.Printf("circuit delay Δ(C): mean=%.3f σ=%.3f\n", cd.Mean(), cd.Std())
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
		fmt.Printf("  q%-4.2f = %.3f\n", q, cd.Quantile(q))
	}

	cutoff := *clk
	if cutoff == 0 {
		cutoff = cd.Quantile(0.95)
	}
	fmt.Printf("\ncritical probability P(Δ > %.3f) = %.4f\n", cutoff, res.CriticalProb(cutoff))

	clark, err := tengine.NewAnalytic(m).STA(ctx, *samples, *mcSeed, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddd-sta:", err)
		os.Exit(1)
	}
	fmt.Printf("Clark approximation: mean=%.3f σ=%.3f (%s mean=%.3f σ=%.3f)\n\n",
		clark.CircuitDelay.Mean(), clark.CircuitDelay.Std(), eng.Name(), cd.Mean(), cd.Std())

	type row struct {
		name string
		mean float64
		crt  float64
	}
	rows := make([]row, len(res.Arrivals))
	for i, a := range res.Arrivals {
		rows[i] = row{name: c.Gates[c.Outputs[i]].Name, mean: a.Mean(), crt: a.Exceed(cutoff)}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].mean > rows[j].mean })
	n := *top
	if n > len(rows) {
		n = len(rows)
	}
	fmt.Printf("slowest %d outputs:\n%-20s %10s %12s\n", n, "output", "mean", "P(>clk)")
	for _, r := range rows[:n] {
		fmt.Printf("%-20s %10.3f %12.4f\n", r.name, r.mean, r.crt)
	}

	// Statistical criticality: which arcs actually carry the critical
	// path once variation is accounted for.
	cr, err := eng.Criticality(ctx, *samples, *mcSeed, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddd-sta:", err)
		os.Exit(1)
	}
	fmt.Printf("\nmost critical arcs (P(on critical path)):\n")
	for _, a := range cr.Top(*top) {
		arc := c.Arcs[a]
		fmt.Printf("  %-5d %s -> %s (pin %d): %.3f\n",
			a, c.Gates[arc.From].Name, c.Gates[arc.To].Name, arc.Pin, cr.Prob[a])
	}

	// Deterministic slack at the cut-off on the nominal instance.
	slacks := m.Slacks(m.NominalInstance(), cutoff)
	fmt.Printf("\nmin-slack arcs at clk %.3f (nominal corner):\n", cutoff)
	for _, a := range timing.MinSlackArcs(slacks, *top) {
		arc := c.Arcs[a]
		fmt.Printf("  %-5d %s -> %s: slack %.3f\n",
			a, c.Gates[arc.From].Name, c.Gates[arc.To].Name, slacks[a])
	}
}

func loadCircuit(benchFile, profile string, seed uint64) (*repro.Circuit, error) {
	if benchFile == "" {
		return repro.GenerateCircuit(profile, seed)
	}
	f, err := os.Open(benchFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return repro.ParseBench(f, benchFile)
}
