// Quickstart: the whole diagnosis pipeline in one page.
//
// Generate a benchmark circuit, inject a random delay defect into one
// sampled die, observe its failing behavior at the cut-off period,
// and ask the diagnosis to find the defect.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A small benchmark circuit and its statistical timing model.
	c, err := repro.GenerateCircuit("small", 2003)
	if err != nil {
		log.Fatal(err)
	}
	model := repro.NewTimingModel(c, repro.DefaultTimingParams())
	fmt.Printf("circuit %s: %s\n", c.Name, c.Stats())

	// One manufactured die, with one random delay defect on it.
	injector := repro.NewInjector(c, model)
	truth := injector.Sample(repro.NewRand(2))
	die := model.SampleInstanceSeeded(2, 0)
	fmt.Printf("injected (hidden from the diagnosis): %v\n", truth)

	// Diagnostic patterns through the fault site, and a cut-off period
	// at the 90th percentile of the longest targeted path.
	tests := repro.DiagnosticPatterns(model, truth.Arc, 8, 11)
	if len(tests) == 0 {
		log.Fatal("no diagnostic patterns for this site; try another seed")
	}
	pats := make([]repro.PatternPair, len(tests))
	clk := 0.0
	for i, tc := range tests {
		pats[i] = tc.Pair
		tl, err := model.TimingLengthCtx(context.Background(), tc.Path.Arcs, 200, 13, 0)
		if err != nil {
			log.Fatal(err)
		}
		if q := tl.Quantile(0.9); q > clk {
			clk = q
		}
	}
	fmt.Printf("%d diagnostic patterns, clk = %.3f\n", len(pats), clk)

	// The failing behavior a tester would observe.
	behavior := repro.SimulateBehavior(c, die, pats, truth, clk)
	fmt.Printf("behavior matrix: %d failing entries\n", behavior.FailCount())
	if !behavior.AnyFailure() {
		log.Fatal("the defect escaped at this clock; try another seed")
	}

	// Prune suspects, build the probabilistic fault dictionary, rank.
	suspects := repro.SuspectArcs(c, pats, behavior)
	dict, err := repro.BuildDictionary(model, pats, suspects, repro.DictConfig{
		Clk:         clk,
		Samples:     96,
		Seed:        17,
		Incremental: true,
		SizeDist:    repro.AssumedSizeDist(injector),
	})
	if err != nil {
		log.Fatal(err)
	}
	ranked := dict.Diagnose(behavior, repro.AlgRev)
	fmt.Printf("\nAlg_rev ranking over %d suspects (top 5):\n", len(ranked))
	for i, rk := range ranked[:min(5, len(ranked))] {
		mark := ""
		if rk.Arc == truth.Arc {
			mark = "   <== the injected defect"
		}
		a := c.Arcs[rk.Arc]
		fmt.Printf("  %d. arc %-4d %s -> %s  err=%.4f%s\n",
			i+1, rk.Arc, c.Gates[a.From].Name, c.Gates[a.To].Name, rk.Score, mark)
	}
	for i, rk := range ranked {
		if rk.Arc == truth.Arc {
			fmt.Printf("\nthe injected defect is ranked %d of %d\n", i+1, len(ranked))
			return
		}
	}
	fmt.Println("\nthe injected defect was pruned from the suspect set")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
