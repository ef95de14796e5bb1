// Command perfbench is the repository's end-to-end benchmark. It
// drives one named workload from outside the program, timing calls
// into each layer's public functions, checks every output, and prints
// one JSON result line:
//
//	bash perfbench/run.sh --workload table1-analytic --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of traced rounds (plus the
// tracing overhead against untraced rounds of the same run), and a
// per-layer table goes to standard error. BENCHMARK.json at the
// repository root lists the workloads and metrics; README.md in this
// directory says which end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the untraced metrics every workload reports. An
// "operation" is one Table I case on the table1-* workloads and one
// client request on serve-routed.
var endToEnd = []metricDef{
	{"run_s", "s", "lower"},           // median wall time of one round of the workload's fixed work
	{"latency_ms.p50", "ms", "lower"}, // median operation latency
	{"latency_ms.p90", "ms", "lower"}, // 90th-percentile operation latency
	{"throughput_ops", "1/s", "higher"},
	{"setup_s", "s", "lower"}, // median of the run's repeated set-ups
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced-round metrics every workload reports; a
// layer a workload never calls reads 0.
var perLayer = []metricDef{
	{"atpg.busy_s", "s", "lower"},
	{"atpg.share", "frac", "lower"},
	{"atpg.calls", "count", "lower"},
	{"atpg.patterns", "count", "higher"},
	{"atpg.yield", "frac", "higher"},
	{"clk_select.busy_s", "s", "lower"},
	{"clk_select.calls", "count", "lower"},
	{"behavior_sim.busy_s", "s", "lower"},
	{"behavior_sim.patterns", "count", "lower"},
	{"behavior_sim.failing_frac", "frac", "higher"},
	{"suspects.busy_s", "s", "lower"},
	{"suspects.count", "count", "lower"},
	{"suspects.strict_frac", "frac", "higher"},
	{"dict_build.busy_s", "s", "lower"},
	{"dict_build.calls", "count", "lower"},
	{"dict_build.share", "frac", "lower"},
	{"dict_build.cells", "count", "lower"},
	{"dict_build.cells_per_s", "1/s", "higher"},
	{"diagnose.busy_s", "s", "lower"},
	{"diagnose.rankings", "count", "lower"},
	{"diagnose.hit_rate.rev", "frac", "higher"},
	{"timing.samples", "count", "lower"},
	{"other_s", "s", "lower"},
	{"run.alloc_mb", "MB", "lower"},
	{"run.gc_cycles", "count", "lower"},
	{"router.self_ms.p50", "ms", "lower"},
	{"router.attempts_per_req", "count", "lower"},
	{"replica.handler_ms.p50", "ms", "lower"},
	{"replica.handler_ms.p99", "ms", "lower"},
	{"pool.rejected", "count", "lower"},
	{"cache.hit_ratio", "frac", "higher"},
	{"cache.loads", "count", "lower"},
	{"cache.evictions", "count", "lower"},
	{"persist.load_ms", "ms", "lower"},
	{"score.busy_us", "us", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// traceDir keeps the spans of traced runs, relative to the checkout.
const traceDir = ".bench_build/traces"

// options are the command-line arguments plus where the run may write.
type options struct {
	Seed    uint64
	Budget  time.Duration // --seconds: how long the measured rounds may take
	Trace   bool
	WorkDir string // scratch space inside the checkout
}

// outcome is what a workload run produces.
type outcome struct {
	Attempted int64
	Failed    int64
	E2E       map[string]float64 // untraced rounds
	Layer     map[string]float64 // traced rounds (trace mode only)
	Report    string             // per-layer table (trace mode only)
}

type workload struct {
	Name string
	Run  func(opts options) (*outcome, error)
}

var workloads = []workload{
	{"table1-analytic", func(o options) (*outcome, error) { return runTable1(table1Analytic, o) }},
	{"table1-mc", func(o options) (*outcome, error) { return runTable1(table1MC, o) }},
	{"serve-routed", runServe},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: table1-analytic, table1-mc or serve-routed")
	seed := flag.Uint64("seed", 1, "workload seed: the generated inputs are a function of it")
	secs := flag.Int("seconds", 10, "measurement budget in seconds (at least one round always runs)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	record := flag.String("record-digests", "", "instead of benchmarking, record reference case digests for seeds FROM-TO into digests.json (run inside perfbench/)")
	buildDicts := flag.Bool("build-dicts", false, "instead of benchmarking, rebuild the served dictionaries into dicts/ (run inside perfbench/)")
	flag.Parse()

	switch {
	case *record != "":
		if err := recordDigests(*record, "digests.json"); err != nil {
			fail(err)
		}
		return
	case *buildDicts:
		if err := buildServeDicts("dicts"); err != nil {
			fail(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *secs < 1 {
		fail(fmt.Errorf("--seconds must be at least 1, got %d", *secs))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].Name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if errors.Is(err, os.ErrNotExist) {
		if err = os.MkdirAll(".bench_build", 0o755); err == nil {
			work, err = os.MkdirTemp(".bench_build", "run-")
		}
	}
	if err != nil {
		fail(fmt.Errorf("scratch directory: %w", err))
	}
	out, err := wl.Run(options{Seed: *seed, Budget: time.Duration(*secs) * time.Second, Trace: *trace == 1, WorkDir: work})
	if rmErr := os.RemoveAll(work); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", rmErr)
	}
	if err != nil {
		fail(err)
	}
	res := result{Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, out.E2E
	if *trace == 1 {
		defs, vals = perLayer, out.Layer
		fmt.Fprint(os.Stderr, out.Report)
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			fail(fmt.Errorf("workload %s did not report %s", wl.Name, d.Name))
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: attempted=%d failed=%d error_rate=%.4g\n",
		wl.Name, *seed, out.Attempted, out.Failed, ratio(float64(out.Failed), float64(out.Attempted)))
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnap brackets a measured window for allocation and GC counts.
type memSnap struct{ alloc, gc uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, gc: uint64(ms.NumGC)}
}

// rounds runs the workload's fixed work: at least min rounds, then
// more while another round as long as the last one still fits in the
// budget. In trace mode rounds alternate untraced and traced. Which
// kind runs first, on a colder process, flips with the seed's parity:
// a run with few rounds (table1 fits two) puts the cold round on one
// side of trace.overhead_frac, and over seeds on both sides alike.
func rounds(budget time.Duration, min int, round func(i int) (time.Duration, error)) error {
	var elapsed time.Duration
	for i := 0; ; i++ {
		d, err := round(i)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		elapsed += d
		if i+1 >= min && elapsed+d > budget {
			return nil
		}
	}
}

// layerTable renders per-layer metrics as an aligned table, in
// BENCHMARK.json order.
func layerTable(title string, m map[string]float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	for _, d := range perLayer {
		fmt.Fprintf(&sb, "  %-28s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	return sb.String()
}
