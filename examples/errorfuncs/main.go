// errorfuncs compares the paper's four diagnosis error functions — and
// one custom function plugged in through the extension point — on a
// batch of injected-defect cases. This is the paper's central
// question: the same probabilistic fault dictionary, matched to the
// same failing behavior, ranks candidates differently depending on
// what "better match" means.
//
//	go run ./examples/errorfuncs
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro"
	"repro/internal/core"
	"repro/internal/eval"
)

func main() {
	cfg := eval.DefaultConfig("small")
	cfg.N = 12
	cfg.DictSamples = 96
	cfg.MaxPatterns = 8
	res, err := eval.RunCircuit(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("circuit %s, %d cases, escape rate %.0f%%, mean suspects %.0f\n\n",
		cfg.Circuit, cfg.N, 100*res.EscapeRate(), res.MeanSuspects())

	fmt.Printf("%-12s", "K")
	for _, m := range repro.Methods {
		fmt.Printf(" %11s", m)
	}
	fmt.Println()
	for _, k := range []int{1, 3, 5, 10} {
		fmt.Printf("%-12d", k)
		for _, m := range repro.Methods {
			fmt.Printf(" %10.0f%%", 100*res.SuccessRate(m, k))
		}
		fmt.Println()
	}

	// A custom error function through the extension point: L1 distance
	// instead of the Euclidean distance of Alg_rev. The paper's
	// conclusion — "search for a good error function first" — invites
	// exactly this kind of experiment.
	fmt.Println("\ncustom error function (L1 distance Σ|1-φ|) on one case:")
	demoCustom()
}

// demoCustom reruns one case by hand and ranks it with both Alg_rev
// and the custom L1 error function.
func demoCustom() {
	c, err := repro.GenerateCircuit("small", 2003)
	if err != nil {
		log.Fatal(err)
	}
	model := repro.NewTimingModel(c, repro.DefaultTimingParams())
	injector := repro.NewInjector(c, model)
	truth := injector.Sample(repro.NewRand(2))
	die := model.SampleInstanceSeeded(2, 0)

	tests := repro.DiagnosticPatterns(model, truth.Arc, 8, 11)
	if len(tests) == 0 {
		log.Fatal("no patterns")
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
	b := repro.SimulateBehavior(c, die, pats, truth, clk)
	if !b.AnyFailure() {
		log.Fatal("escaped")
	}
	suspects := repro.SuspectArcs(c, pats, b)
	dict, err := repro.BuildDictionary(model, pats, suspects, repro.DictConfig{
		Clk: clk, Samples: 96, Seed: 17, Incremental: true,
		SizeDist: repro.AssumedSizeDist(injector),
	})
	if err != nil {
		log.Fatal(err)
	}

	l1 := func(phi []float64) float64 {
		sum := 0.0
		for _, p := range phi {
			sum += math.Abs(1 - p)
		}
		return sum
	}
	rev := dict.Diagnose(b, repro.AlgRev)
	custom := dict.DiagnoseErrorFunc(b, l1)
	fmt.Printf("  injected arc %d: Alg_rev rank %d, L1 rank %d (of %d suspects)\n",
		truth.Arc, rankOf(rev, truth.Arc), rankOf(custom, truth.Arc), len(suspects))
}

func rankOf(ranked []core.Ranked, truth repro.ArcID) int {
	for i, rk := range ranked {
		if rk.Arc == truth {
			return i + 1
		}
	}
	return 0
}
