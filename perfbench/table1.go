package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
	tengine "repro/internal/timing/engine"
)

// table1Spec is one Table I workload: a circuit at the paper
// configuration (eval.DefaultConfig) under one timing engine.
type table1Spec struct {
	Name   string
	Engine string
	Sites  int // the first Sites defects of the Table I run
	Dies   int // dies each defect is diagnosed on
}

// A round, the workload's fixed work, is Sites × Dies cases.
var (
	table1Analytic = table1Spec{Name: "table1-analytic", Engine: "analytic", Sites: 20, Dies: 1}
	table1MC       = table1Spec{Name: "table1-mc", Engine: "mc", Sites: 8, Dies: 2}
)

const (
	table1Circuit = "s1488"
	// benchWorkers bounds every parallel layer the benchmark drives:
	// one process, at most two goroutines of work at a time.
	benchWorkers = 2
	// A run builds the circuit, model, engine and case list at least
	// table1SetupRepeats times and for at least table1SetupSpan; setup_s
	// is the median. A set-up takes a few milliseconds and the first
	// ones in a fresh process are the slowest, so the median needs many.
	table1SetupRepeats = 9
	table1SetupSpan    = time.Second
	// autoKMax is eval's AutoK search cap for Alg_rev.
	autoKMax = 16
)

// table1Seed is the root seed of the paper's Table I run
// (eval.DefaultConfig). It fixes every case's defect site and size and
// the seeds of the per-case ATPG, clock and dictionary sampling.
const table1Seed = 1

// table1Config is the eval configuration of a workload: the Table I
// run of the workload's circuit, cut to its first spec.Sites cases.
func table1Config(spec table1Spec) eval.Config {
	cfg := eval.DefaultConfig(table1Circuit)
	cfg.Seed = table1Seed
	cfg.N = spec.Sites
	cfg.Engine = spec.Engine
	cfg.Workers = benchWorkers
	return cfg
}

// caseInput is one generated Table I case: the die and the defect it
// carries. These are the only inputs the program's layers see.
type caseInput struct {
	Index  int
	Seed   uint64 // per-case root seed
	Delays []float64
	Defect defect.Defect
}

// table1Env is everything a round needs, built by setupTable1.
type table1Env struct {
	Cfg      eval.Config
	C        *circuit.Circuit
	M        *timing.Model
	Eng      timing.Engine
	SizeDist dist.Dist
	Cases    []caseInput
}

// setupTable1 builds the circuit, model and engine, and generates the
// case list: each of the cfg.N Table I defects of cfg on dies dies
// drawn from dieSeed. The workload seed is dieSeed, so a seed changes
// every die (and with it the behavior matrices, suspects, dictionaries
// and rankings) while the defect sites, and so the ATPG work, stay
// those of Table I. With dieSeed == cfg.Seed the first die of every
// defect is the one eval.RunOnCircuitCtx draws, so those cases are
// exactly eval's.
func setupTable1(cfg eval.Config, dieSeed uint64, dies int) (*table1Env, error) {
	c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		return nil, err
	}
	m := timing.NewModel(c, cfg.Timing)
	eng, err := tengine.New(cfg.Engine, m)
	if err != nil {
		return nil, err
	}
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	env := &table1Env{Cfg: cfg, C: c, M: m, Eng: eng, SizeDist: inj.AssumedSizeDist()}
	for i := 0; i < cfg.N; i++ {
		caseSeed := rng.DeriveN(cfg.Seed, 0xca5e, uint64(i))
		df := inj.Sample(rng.New(caseSeed))
		for d := 0; d < dies; d++ {
			inst := m.SampleInstanceSeeded(dieSeed, uint64((d+1)*1_000_000+i))
			env.Cases = append(env.Cases, caseInput{Index: i, Seed: caseSeed, Delays: inst.Delays, Defect: df})
		}
	}
	return env, nil
}

// caseCounts are the work counts one case hands its layers.
type caseCounts struct {
	ATPGFound    int // patterns found by ATPG
	ClkCalls     int // TimingLength calls
	BehaviorPats int // patterns simulated on the defective die
	FailCells    int // failing (output, pattern) cells of B
	Cells        int // all cells of B
	Suspects     int
	Strict       int
	DictCells    int // suspects × patterns of the dictionary built
	Rankings     int // Diagnose calls
}

// runCase is one Table I case, each layer call wrapped in a span. It
// performs exactly the calls of eval's per-case loop, in the same order
// and with the same arguments (TestPipelineEquivalence holds it to
// eval.RunOnCircuitCtx).
func runCase(ctx context.Context, env *table1Env, in caseInput, tr *tracer, op int64) (eval.CaseResult, caseCounts, error) {
	cfg, c := env.Cfg, env.C
	var n caseCounts
	cs := eval.CaseResult{Instance: in.Index, Defect: in.Defect, Rank: make(map[core.Method]int)}

	end := tr.begin("atpg", "case", op)
	tests := atpg.DiagnosticPatterns(c, env.M.Nominal, in.Defect.Arc, cfg.MaxPatterns, rng.New(rng.Derive(in.Seed, 1)))
	end(int64(len(tests)))
	n.ATPGFound = len(tests)
	if len(tests) == 0 {
		cs.Escaped = true
		return cs, n, nil
	}
	pats := make([]logicsim.PatternPair, len(tests))
	for k, tc := range tests {
		pats[k] = tc.Pair
	}
	cs.Patterns = len(pats)

	end = tr.begin("clk_select", "case", op)
	for _, tc := range tests {
		tl, err := env.Eng.TimingLength(ctx, tc.Path.Arcs, cfg.ClkSamples, rng.Derive(in.Seed, 2), cfg.Workers)
		if err != nil {
			return cs, n, err
		}
		if q := tl.Quantile(cfg.ClkQuantile); q > cs.Clk {
			cs.Clk = q
		}
	}
	n.ClkCalls = len(tests)
	end(int64(len(tests)))

	end = tr.begin("behavior_sim", "case", op)
	b := core.SimulateBehavior(c, in.Delays, pats, in.Defect.Arc, in.Defect.Size, cs.Clk)
	end(int64(len(pats)))
	n.BehaviorPats = len(pats)
	n.FailCells = b.FailCount()
	n.Cells = len(c.Outputs) * len(pats)
	if !b.AnyFailure() {
		cs.Escaped = true
		return cs, n, nil
	}

	end = tr.begin("suspects", "case", op)
	strict, relaxed := core.SuspectArcsTiered(c, pats, b)
	suspects := append(append([]circuit.ArcID(nil), strict...), relaxed...)
	end(int64(len(suspects)))
	n.Suspects, n.Strict = len(suspects), len(strict)
	cs.Suspects = len(suspects)
	for _, a := range suspects {
		if a == in.Defect.Arc {
			cs.TruthInSuspects = true
		}
	}
	if !cs.TruthInSuspects {
		return cs, n, nil
	}

	end = tr.begin("dict_build", "case", op)
	dict, err := core.BuildDictionaryCtx(ctx, env.M, pats, suspects, core.DictConfig{
		Clk:         cs.Clk,
		Engine:      cfg.Engine,
		Samples:     cfg.DictSamples,
		Seed:        rng.Derive(in.Seed, 4),
		Workers:     cfg.Workers,
		Incremental: true,
		SizeDist:    env.SizeDist,
	})
	end(int64(len(suspects) * len(pats)))
	if err != nil {
		return cs, n, err
	}
	n.DictCells = len(suspects) * len(pats)

	end = tr.begin("diagnose", "case", op)
	for _, method := range core.Methods {
		ranked := dict.Diagnose(b, method)
		for pos, rk := range ranked {
			if rk.Arc == in.Defect.Arc {
				cs.Rank[method] = pos + 1
				break
			}
		}
		if method == core.AlgRev {
			cs.AutoK, cs.AutoKGap = core.AutoK(ranked, method, autoKMax)
		}
	}
	n.Rankings = len(core.Methods)
	end(int64(len(core.Methods)))
	return cs, n, nil
}

// caseDigest fingerprints everything a case concludes: the defect, the
// cut-off period, pattern and suspect counts, every method's rank of
// the true arc, and AutoK. Floats enter by their exact bits.
func caseDigest(cs eval.CaseResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "i=%d arc=%d size=%x clk=%x pats=%d esc=%t sus=%d in=%t",
		cs.Instance, cs.Defect.Arc, math.Float64bits(cs.Defect.Size), math.Float64bits(cs.Clk),
		cs.Patterns, cs.Escaped, cs.Suspects, cs.TruthInSuspects)
	for _, m := range core.Methods {
		fmt.Fprintf(&sb, " %s=%d", m, cs.Rank[m])
	}
	fmt.Fprintf(&sb, " autok=%d gap=%x", cs.AutoK, math.Float64bits(cs.AutoKGap))
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8])
}

// runTable1 runs one Table I workload.
func runTable1(spec table1Spec, opts options) (*outcome, error) {
	cfg := table1Config(spec)
	var env *table1Env
	var setups []time.Duration
	for start := time.Now(); len(setups) < table1SetupRepeats || time.Since(start) < table1SetupSpan; {
		runtime.GC() // a set-up takes milliseconds: start each from a collected heap
		t0 := time.Now()
		e, err := setupTable1(cfg, opts.Seed, spec.Dies)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
		env = e
	}

	want, recorded, err := recordedDigests(spec.Name, opts.Seed)
	if err != nil {
		return nil, err
	}
	if recorded && len(want) != len(env.Cases) {
		return nil, fmt.Errorf("digests.json has %d cases for %s seed %d, the workload runs %d", len(want), spec.Name, opts.Seed, len(env.Cases))
	}
	out := &outcome{}
	check := func(cs eval.CaseResult, i int) {
		out.Attempted++
		err := caseInvariants(cs, cfg)
		if d := caseDigest(cs); err == nil && recorded && d != want[i] {
			err = fmt.Errorf("case %d (defect %d): digest %s, recorded %s", i, cs.Instance, d, want[i])
		}
		if err != nil {
			out.Failed++
			if out.Failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			}
		}
	}

	var (
		plainWalls, tracedWalls []time.Duration
		caseWalls               [][]time.Duration // per untraced round
		counts                  caseCounts
		hits                    int
		tr                      = newTracer()
		windows                 [][2]int64
		mem0                    memSnap
		memAlloc, memGC         uint64
		ctr0, ctrDelta          counters
	)
	maxK := eval.Table1KValues(cfg.Circuit)
	largestK := maxK[len(maxK)-1]
	minRounds := 1
	if opts.Trace {
		minRounds = 2
	}
	err = rounds(opts.Budget, minRounds, func(r int) (time.Duration, error) {
		traced := opts.Trace && (r+int(opts.Seed))%2 == 1
		var rt *tracer
		if traced {
			rt = tr
			mem0 = readMem()
			ctr0 = readCounters()
		}
		from := rt.mark()
		t0 := time.Now()
		var walls []time.Duration
		for i, in := range env.Cases {
			op := int64(r*len(env.Cases) + i)
			endCase := rt.begin("case", "", op)
			c0 := time.Now()
			cs, n, err := runCase(context.Background(), env, in, rt, op)
			cw := time.Since(c0)
			endCase(1)
			if err != nil {
				return 0, fmt.Errorf("case %d: %w", i, err)
			}
			check(cs, i)
			if traced {
				counts.add(n)
				if pos := cs.Rank[core.AlgRev]; pos >= 1 && pos <= largestK {
					hits++
				}
			} else {
				walls = append(walls, cw)
			}
		}
		wall := time.Since(t0)
		if traced {
			m1 := readMem()
			memAlloc += m1.alloc - mem0.alloc
			memGC += m1.gc - mem0.gc
			ctrDelta = ctrDelta.add(readCounters().sub(ctr0))
			windows = append(windows, [2]int64{from, rt.mark()})
			tracedWalls = append(tracedWalls, wall)
		} else {
			plainWalls = append(plainWalls, wall)
			caseWalls = append(caseWalls, walls)
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	if !recorded {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d has no recorded digests; checked case invariants only\n", spec.Name, opts.Seed)
	}

	p50, p90 := latencies(caseWalls)
	var rates []float64
	for _, w := range plainWalls {
		rates = append(rates, float64(len(env.Cases))/w.Seconds())
	}
	out.E2E = map[string]float64{
		"run_s":          median(seconds(plainWalls)),
		"latency_ms.p50": p50,
		"latency_ms.p90": p90,
		"throughput_ops": median(rates),
		"setup_s":        median(seconds(setups)),
		"peak_rss_mb":    peakRSSMB(),
	}
	if opts.Trace {
		var spans []span
		for _, w := range windows {
			spans = append(spans, tr.window(w[0], w[1])...)
		}
		out.Layer = table1Layers(spans, tracedWalls, plainWalls, counts, hits, cfg, memAlloc, memGC, ctrDelta)
		if err := checkBusy(out.Layer, tracedWalls); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			out.Failed++
		}
		path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", spec.Name, opts.Seed))
		if err != nil {
			return nil, err
		}
		out.Report = layerTable(fmt.Sprintf("%s seed=%d: per-layer split over %d traced round(s), %d case(s) each (spans: %s)",
			spec.Name, opts.Seed, len(tracedWalls), len(env.Cases), path), out.Layer)
	}
	return out, nil
}

func (a *caseCounts) add(b caseCounts) {
	a.ATPGFound += b.ATPGFound
	a.ClkCalls += b.ClkCalls
	a.BehaviorPats += b.BehaviorPats
	a.FailCells += b.FailCells
	a.Cells += b.Cells
	a.Suspects += b.Suspects
	a.Strict += b.Strict
	a.DictCells += b.DictCells
	a.Rankings += b.Rankings
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// table1Layers turns the traced rounds' spans and counts into the
// per-layer metrics, per round.
func table1Layers(spans []span, traced, plain []time.Duration, n caseCounts, hits int, cfg eval.Config, alloc, gc uint64, ctr counters) map[string]float64 {
	agg := aggregate(spans)
	get := func(layer string) *layerStat {
		if s, ok := agg[layer]; ok {
			return s
		}
		return &layerStat{}
	}
	rounds := float64(len(traced))
	wall := sum(traced).Seconds()
	busy := func(layer string) float64 { return get(layer).Sum.Seconds() / rounds }
	var layerSum float64
	for _, l := range []string{"atpg", "clk_select", "behavior_sim", "suspects", "dict_build", "diagnose"} {
		layerSum += get(l).Sum.Seconds()
	}
	cases := float64(get("case").Calls)
	return map[string]float64{
		"atpg.busy_s":               busy("atpg"),
		"atpg.share":                ratio(get("atpg").Sum.Seconds(), wall),
		"atpg.calls":                float64(get("atpg").Calls) / rounds,
		"atpg.patterns":             float64(n.ATPGFound) / rounds,
		"atpg.yield":                ratio(float64(n.ATPGFound), float64(get("atpg").Calls)*float64(cfg.MaxPatterns)),
		"clk_select.busy_s":         busy("clk_select"),
		"clk_select.calls":          float64(n.ClkCalls) / rounds,
		"behavior_sim.busy_s":       busy("behavior_sim"),
		"behavior_sim.patterns":     float64(n.BehaviorPats) / rounds,
		"behavior_sim.failing_frac": ratio(float64(n.FailCells), float64(n.Cells)),
		"suspects.busy_s":           busy("suspects"),
		"suspects.count":            float64(n.Suspects) / rounds,
		"suspects.strict_frac":      ratio(float64(n.Strict), float64(n.Suspects)),
		"dict_build.busy_s":         busy("dict_build"),
		"dict_build.calls":          ctr.DictBuilds / rounds,
		"dict_build.share":          ratio(get("dict_build").Sum.Seconds(), wall),
		"dict_build.cells":          float64(n.DictCells) / rounds,
		"dict_build.cells_per_s":    ratio(float64(n.DictCells), get("dict_build").Sum.Seconds()),
		"diagnose.busy_s":           busy("diagnose"),
		"diagnose.rankings":         float64(n.Rankings) / rounds,
		"diagnose.hit_rate.rev":     ratio(float64(hits), cases),
		"timing.samples":            ctr.TimingSamples / rounds,
		"other_s":                   (wall - layerSum) / rounds,
		"run.alloc_mb":              float64(alloc) / (1 << 20) / rounds,
		"run.gc_cycles":             float64(gc) / rounds,
		"router.self_ms.p50":        0,
		"router.attempts_per_req":   0,
		"replica.handler_ms.p50":    0,
		"replica.handler_ms.p99":    0,
		"pool.rejected":             0,
		"cache.hit_ratio":           0,
		"cache.loads":               0,
		"cache.evictions":           0,
		"persist.load_ms":           0,
		"score.busy_us":             0,
		"trace.overhead_frac":       median(seconds(traced))/median(seconds(plain)) - 1,
	}
}

// checkBusy verifies the tracer's bookkeeping: the table1 layers run
// one after another, so their summed busy time cannot exceed the
// traced rounds' wall time.
func checkBusy(layer map[string]float64, traced []time.Duration) error {
	var busy float64
	for _, l := range []string{"atpg", "clk_select", "behavior_sim", "suspects", "dict_build", "diagnose"} {
		busy += layer[l+".busy_s"]
	}
	wall := sum(traced).Seconds() / float64(len(traced))
	if busy > wall {
		return fmt.Errorf("layer busy time %.6fs exceeds round wall time %.6fs", busy, wall)
	}
	return nil
}

// caseInvariants are the properties every case result must have,
// whatever the seed.
func caseInvariants(cs eval.CaseResult, cfg eval.Config) error {
	switch {
	case cs.Patterns > cfg.MaxPatterns:
		return fmt.Errorf("case %d: %d patterns > %d", cs.Instance, cs.Patterns, cfg.MaxPatterns)
	case cs.Patterns > 0 && !(cs.Clk > 0):
		return fmt.Errorf("case %d: clk %v", cs.Instance, cs.Clk)
	case cs.Escaped && cs.Suspects > 0:
		return fmt.Errorf("case %d: escaped with %d suspects", cs.Instance, cs.Suspects)
	}
	diagnosed := cs.TruthInSuspects && !cs.Escaped
	for _, m := range core.Methods {
		r := cs.Rank[m]
		if diagnosed != (r >= 1) || r > cs.Suspects {
			return fmt.Errorf("case %d: %s rank %d of %d suspects", cs.Instance, m, r, cs.Suspects)
		}
	}
	if diagnosed && (cs.AutoK < 1 || cs.AutoK > autoKMax) {
		return fmt.Errorf("case %d: AutoK %d", cs.Instance, cs.AutoK)
	}
	return nil
}

// table1Results runs every case of a workload once, untraced: the
// reference the recorded digests come from.
func table1Results(spec table1Spec, seed uint64) ([]eval.CaseResult, error) {
	env, err := setupTable1(table1Config(spec), seed, spec.Dies)
	if err != nil {
		return nil, err
	}
	var out []eval.CaseResult
	for _, in := range env.Cases {
		cs, _, err := runCase(context.Background(), env, in, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("case %d: %w", in.Index, err)
		}
		out = append(out, cs)
	}
	return out, nil
}
