package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/service"
)

// TestPipelineEquivalence holds the benchmark's stage-timed case loop
// to the program's own Table I loop: on a small profile, under both
// timing engines, traced and untraced, every CaseResult must equal the
// one eval.RunOnCircuitCtx produces. The per-layer split therefore
// always times the program Table I runs.
func TestPipelineEquivalence(t *testing.T) {
	for _, engine := range []string{"mc", "analytic"} {
		t.Run(engine, func(t *testing.T) {
			cfg := eval.DefaultConfig("small")
			cfg.N = 6
			cfg.DictSamples = 32
			cfg.Engine = engine
			cfg.Workers = benchWorkers
			ref, err := eval.RunCircuit(cfg)
			if err != nil {
				t.Fatal(err)
			}
			env, err := setupTable1(cfg, cfg.Seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			diagnosed, built := 0, 0
			ctr0 := readCounters()
			for _, tr := range []*tracer{nil, newTracer()} {
				for i, in := range env.Cases {
					got, _, err := runCase(context.Background(), env, in, tr, int64(i))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, ref.Cases[i]) {
						t.Fatalf("case %d (traced=%v):\n got %+v\nwant %+v", i, tr != nil, got, ref.Cases[i])
					}
					if got.Rank[core.AlgRev] > 0 {
						diagnosed++
					}
					if got.TruthInSuspects {
						built++
					}
				}
			}
			if diagnosed == 0 {
				t.Fatal("no case reached diagnosis; the comparison covers too little of the pipeline")
			}
			// The timing.samples layer metric reads the process counter
			// the Monte-Carlo engine advances; dict_build.calls counts one
			// build per case whose suspects hold the true arc.
			d := readCounters().sub(ctr0)
			if moved := d.TimingSamples > 0; moved != (engine == "mc") {
				t.Errorf("timing samples moved = %v under %s", moved, engine)
			}
			if want := float64(built); d.DictBuilds != want {
				t.Errorf("%g dictionary builds counted, want %g", d.DictBuilds, want)
			}
		})
	}
}

// TestGeneratorDeterminism: the same seed gives an identical case list
// and request plan, another seed a different one.
func TestGeneratorDeterminism(t *testing.T) {
	cfg := table1Config(table1MC)
	cases := func(seed uint64) []caseInput {
		env, err := setupTable1(cfg, seed, table1MC.Dies)
		if err != nil {
			t.Fatal(err)
		}
		return env.Cases
	}
	a, b, c := cases(7), cases(7), cases(8)
	if len(a) != table1MC.Sites*table1MC.Dies {
		t.Fatalf("%d cases, want %d", len(a), table1MC.Sites*table1MC.Dies)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different case lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same case list")
	}

	plan := func(seed uint64) []plannedRequest {
		sd, err := loadServeData(seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := planRequests(sd, seed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, q, r := plan(7), plan(7), plan(8)
	if len(p) != serveRoundRequests {
		t.Fatalf("%d planned requests, want %d", len(p), serveRoundRequests)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatal("same seed, different request plans")
	}
	same := 0
	for i := range p {
		if bytes.Equal(p[i].Body, r[i].Body) {
			same++
		}
	}
	if same == len(p) {
		t.Fatal("different seeds, same request plan")
	}
}

// TestServeOutputCheck runs part of a plan through a live tier: every
// answer matches its expected ranking or, for a malformed request, is a
// 400; a wrong expectation is counted as a failed request.
func TestServeOutputCheck(t *testing.T) {
	sd, err := loadServeData(3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planRequests(sd, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan = plan[:200]
	classes := map[string]int{}
	for _, p := range plan {
		switch {
		case p.Malformed:
			classes["malformed"]++
		case len(p.Items) > 1:
			classes["batch"]++
		}
	}
	if classes["malformed"] == 0 || classes["batch"] == 0 {
		t.Fatalf("plan prefix lacks a traffic class: %v", classes)
	}
	var tr atomic.Pointer[tracer]
	tier, err := startTier(sd, t.TempDir(), &tr)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.stop()
	if err := tier.warm(plan); err != nil {
		t.Fatal(err)
	}
	tr.Store(newTracer())
	res := tier.runRound(plan, tr.Load(), 0)
	if res.Failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", res.Failed, len(plan), res.Errs)
	}
	spans := aggregate(tr.Load().window(res.From, res.To))
	for _, layer := range []string{"request", "router", "upstream", "replica"} {
		if spans[layer] == nil || spans[layer].Calls < int64(len(plan)) {
			t.Errorf("layer %s: %+v, want at least %d spans", layer, spans[layer], len(plan))
		}
	}

	var bad []plannedRequest
	for _, p := range plan {
		if len(bad) == 4 {
			break
		}
		if p.Malformed {
			continue
		}
		items := append([]expectItem(nil), p.Items...)
		items[0].Ranking = append([]service.RankedEntry(nil), items[0].Ranking...)
		items[0].Ranking[0].Score = math.Nextafter(items[0].Ranking[0].Score, math.Inf(1))
		p.Items = items
		bad = append(bad, p)
	}
	// A well-formed request expected to be refused.
	wrongClass := bad[0]
	wrongClass.Items, wrongClass.Malformed = nil, true
	bad = append(bad, wrongClass)
	if res := tier.runRound(bad, nil, 0); res.Failed != len(bad) {
		t.Fatalf("%d of %d altered expectations detected", res.Failed, len(bad))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, code has %v", names, want)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, code has %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer %+v, code has %+v", bj.PerLayer, perLayer)
	}
}

func TestUnionLen(t *testing.T) {
	ss := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}, {Start: 22, End: 25}}
	if got := unionLen(ss); got != 25 {
		t.Fatalf("unionLen = %d, want 25", got)
	}
	if got := unionLen(nil); got != 0 {
		t.Fatalf("unionLen(nil) = %d", got)
	}
}

func TestQuantile(t *testing.T) {
	// Symmetric samples have their Harrell–Davis median at the centre.
	if got := quantile([]float64{5, 1, 4, 2, 3}, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median = %v, want 3", got)
	}
	// Weights sum to one: a constant sample estimates itself.
	if got := quantile([]float64{7, 7, 7, 7}, 0.9); math.Abs(got-7) > 1e-9 {
		t.Errorf("p90 of constants = %v", got)
	}
	// Large samples agree with the sample quantile.
	var xs []float64
	for i := 0; i < 1500; i++ {
		xs = append(xs, float64(i))
	}
	if got := quantile(xs, 0.9); math.Abs(got-0.9*1499) > 2 {
		t.Errorf("p90 of 0..1499 = %v", got)
	}
	if got := betaInc(2, 3, 0.4); math.Abs(got-0.5248) > 1e-12 {
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
}

// TestDigestsParseError: a digests.json that does not parse fails the
// run instead of reducing the output check to invariants.
func TestDigestsParseError(t *testing.T) {
	saved := digestsJSON
	defer func() { digestsJSON = saved }()
	digestsJSON = []byte(`{"table1-analytic": {"1": [`)
	if _, _, err := recordedDigests("table1-analytic", 1); err == nil {
		t.Fatal("truncated digests.json accepted")
	}
	if _, err := runTable1(table1Analytic, options{Seed: 1, Budget: time.Second}); err == nil {
		t.Fatal("run with a truncated digests.json did not fail")
	}
}
