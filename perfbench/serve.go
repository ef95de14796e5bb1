package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/timing"
)

// serveDict is one precomputed dictionary of the serving workload.
type serveDict struct {
	ID      string
	Circuit string
	Seed    uint64 // eval.Config.Seed of its global pattern set
}

// serveDicts is the served working set: two global-pattern-set
// dictionaries per Table I circuit from s1196 to s1488. The first is
// the hot dictionary of the traffic model.
var serveDicts = []serveDict{
	{"s1488-a", "s1488", 1},
	{"s1196-a", "s1196", 1},
	{"s1196-b", "s1196", 2},
	{"s1238-a", "s1238", 1},
	{"s1238-b", "s1238", 2},
	{"s1423-a", "s1423", 1},
	{"s1423-b", "s1423", 2},
	{"s1488-b", "s1488", 2},
}

// The traffic model is cmd/ddd-loadgen's default one, the repository's
// stated traffic shape: -hot-skew 0.7 (a diagnosis goes to the hottest
// dictionary with probability 0.7, else to one of the others, evenly),
// -mix single:0.8,batch:0.15,malformed:0.05 with batches of 2-5
// diagnoses, and Alg_rev asked for its top 1-5 arcs. Unlike ddd-loadgen,
// the behavior matrices are those of injected dies, so every answer
// can be checked.
const (
	serveHotSkew        = 0.7
	serveMalformedShare = 0.05
	serveBatchShare     = 0.15
	serveBatchMin       = 2
	serveBatchMax       = 5
	serveMaxK           = 5
)

const (
	serveClients      = 2 // closed-loop clients, each waiting for its reply
	serveReplicas     = 2
	serveSetupRepeats = 5
	serveDiesPerDict  = 16 // failing dies injected per dictionary
	// serveRoundRequests is one round's fixed work. It sets how much a
	// round measures, not the traffic's shape: a round takes 0.1-0.2 s,
	// so a 10 s run holds 50-90 rounds to take the median of, and each
	// round's percentiles rest on 1500 requests.
	serveRoundRequests = 1500
	// serveCacheShare sizes each replica's dictionary cache as a share
	// of the whole working set's resident bytes. A replica owns about
	// half of the set, so it holds most but not all of what it owns.
	serveCacheShare = 0.35
	// Dictionary build parameters: ddd-dict build's defaults (Monte
	// Carlo engine).
	serveDictPatterns    = 16
	serveDictMaxSuspects = 400
	// failedLatency stands in for the latency of a failed request: it
	// misses any limit (it is the router's request timeout).
	failedLatency = 10 * time.Second
)

// die is one injected defective die observed through a dictionary's
// pattern set.
type die struct {
	Rows  []string // behavior matrix, one '0'/'1' string per output
	B     *core.Behavior
	Truth circuit.ArcID
}

// plannedRequest is one client request of the plan: a single
// diagnosis, a batch of them, or a malformed body.
type plannedRequest struct {
	Path      string // "/v1/diagnose" or "/v1/diagnose/batch"
	Body      []byte
	Items     []expectItem // one per diagnosis in the request
	Malformed bool         // the answer must be 400
}

// expectItem is what a diagnosis must answer, computed in set-up with
// CompressedDictionary.Diagnose outside the server.
type expectItem struct {
	Dict    int // index into serveDicts
	Die     int
	K       int
	Ranking []service.RankedEntry
	Hit     bool // the true arc is within the ranking
}

// serveData is the served working set with what the benchmark needs
// to generate traffic for it: each dictionary's circuit and timing
// model, and the dies drawn from the seed.
type serveData struct {
	Circuits []*circuit.Circuit
	Models   []*timing.Model
	CDs      []*core.CompressedDictionary
	Dies     [][]die
}

// The dictionaries are precomputed with eval.BuildStatic (see
// buildServeDicts) and kept in dicts/: building them takes 20-90 s
// each, almost all of it ATPG for the global pattern sets.
//
//go:embed dicts/*.dict
var dictFiles embed.FS

// serveDictConfig is the eval configuration a served dictionary is
// built with: ddd-dict build's defaults, with the dictionary's seed.
func serveDictConfig(d serveDict) eval.Config {
	cfg := eval.DefaultConfig(d.Circuit)
	cfg.Seed = d.Seed
	cfg.MaxPatterns = serveDictPatterns
	cfg.Workers = 1
	return cfg
}

// loadServeData loads every dictionary, rebuilds its circuit and model
// and injects the seed's dies.
func loadServeData(seed uint64) (*serveData, error) {
	sd := &serveData{}
	for di, d := range serveDicts {
		cfg := serveDictConfig(d)
		c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
		if err != nil {
			return nil, err
		}
		m := timing.NewModel(c, cfg.Timing)
		f, err := dictFiles.Open("dicts/" + d.ID + ".dict")
		if err != nil {
			return nil, err
		}
		cd, nIn, err := core.LoadCompressed(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("dictionary %s: %w", d.ID, err)
		}
		if nIn != len(c.Inputs) {
			return nil, fmt.Errorf("dictionary %s: %d inputs, circuit has %d", d.ID, nIn, len(c.Inputs))
		}
		dies, err := injectDies(c, m, cd, seed, uint64(di))
		if err != nil {
			return nil, fmt.Errorf("dictionary %s: %w", d.ID, err)
		}
		sd.Circuits = append(sd.Circuits, c)
		sd.Models = append(sd.Models, m)
		sd.CDs = append(sd.CDs, cd)
		sd.Dies = append(sd.Dies, dies)
	}
	return sd, nil
}

// buildServeDicts rebuilds every served dictionary with
// eval.BuildStatic into dir, two at a time.
func buildServeDicts(dir string) error {
	errs := make([]error, len(serveDicts))
	par.For(len(serveDicts), benchWorkers, func(i int) {
		d := serveDicts[i]
		st, err := eval.BuildStatic(serveDictConfig(d), serveDictMaxSuspects)
		if err == nil {
			err = core.Compress(st.Dict).SaveFileAtomic(filepath.Join(dir, d.ID+".dict"), len(st.C.Inputs))
		}
		errs[i] = err
		fmt.Fprintf(os.Stderr, "built %s: %v\n", d.ID, err)
	})
	return errors.Join(errs...)
}

// injectDies draws random defective dies until serveDiesPerDict of
// them fail at least one of the dictionary's patterns at its cut-off
// period.
func injectDies(c *circuit.Circuit, m *timing.Model, cd *core.CompressedDictionary, seed, dictIndex uint64) ([]die, error) {
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	var out []die
	for j := uint64(0); len(out) < serveDiesPerDict; j++ {
		if j >= 50*serveDiesPerDict {
			return nil, fmt.Errorf("only %d of %d injected dies fail", len(out), serveDiesPerDict)
		}
		df := inj.Sample(rng.New(rng.DeriveN(seed, 0xd1e5, dictIndex<<32|j)))
		inst := m.SampleInstanceSeeded(rng.Derive(seed, 0xd1e6+dictIndex), j)
		b := core.SimulateBehavior(c, inst.Delays, cd.Patterns, df.Arc, df.Size, cd.Clk)
		if !b.AnyFailure() {
			continue
		}
		rows := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		out = append(out, die{Rows: rows, B: b, Truth: df.Arc})
	}
	return out, nil
}

// malformedBodies are ddd-loadgen's malformed requests: truncated
// JSON, an unknown field, an invalid dictionary id, and a behavior
// matrix of the wrong shape (%s is a served dictionary).
var malformedBodies = []string{
	`{"dict":`,
	`{"dict":"alpha","zzz":true,"behavior":["0"]}`,
	`{"dict":"../etc/passwd","behavior":["0"]}`,
	`{"dict":"%s","behavior":["010101"]}`,
}

// planRequests makes one round's request plan from the seed with the
// traffic model above. Expected answers come from
// CompressedDictionary.Diagnose.
func planRequests(sd *serveData, seed uint64) ([]plannedRequest, error) {
	r := rng.New(rng.Derive(seed, 0x91a7))
	pickDict := func() int {
		if r.Float64() < serveHotSkew {
			return 0
		}
		return 1 + r.IntN(len(serveDicts)-1)
	}
	item := func() (service.DiagnoseRequest, expectItem) {
		di := pickDict()
		ji := r.IntN(len(sd.Dies[di]))
		req := service.DiagnoseRequest{Dict: serveDicts[di].ID, Behavior: sd.Dies[di][ji].Rows, K: 1 + r.IntN(serveMaxK)}
		return req, expectedAnswer(sd, di, ji, req.K)
	}
	var plan []plannedRequest
	for k := 0; k < serveRoundRequests; k++ {
		switch u := r.Float64(); {
		case u < serveMalformedShare:
			body := malformedBodies[r.IntN(len(malformedBodies))]
			if strings.Contains(body, "%s") {
				body = fmt.Sprintf(body, serveDicts[pickDict()].ID)
			}
			plan = append(plan, plannedRequest{Path: "/v1/diagnose", Body: []byte(body), Malformed: true})
		case u < serveMalformedShare+serveBatchShare:
			var br service.BatchRequest
			var items []expectItem
			for b := serveBatchMin + r.IntN(serveBatchMax-serveBatchMin+1); b > 0; b-- {
				req, exp := item()
				br.Requests = append(br.Requests, req)
				items = append(items, exp)
			}
			body, err := json.Marshal(br)
			if err != nil {
				return nil, err
			}
			plan = append(plan, plannedRequest{Path: "/v1/diagnose/batch", Body: body, Items: items})
		default:
			req, exp := item()
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			plan = append(plan, plannedRequest{Path: "/v1/diagnose", Body: body, Items: []expectItem{exp}})
		}
	}
	return plan, nil
}

// expectedAnswer ranks a die against a dictionary with Alg_rev outside
// the server and keeps the top k.
func expectedAnswer(sd *serveData, di, ji, k int) expectItem {
	dd := sd.Dies[di][ji]
	ranked := sd.CDs[di].Diagnose(dd.B, core.AlgRev)
	if k > len(ranked) {
		k = len(ranked)
	}
	exp := expectItem{Dict: di, Die: ji, K: k}
	for i, rk := range ranked[:k] {
		exp.Ranking = append(exp.Ranking, service.RankedEntry{Rank: i + 1, Arc: int(rk.Arc), Score: rk.Score})
		if rk.Arc == dd.Truth {
			exp.Hit = true
		}
	}
	return exp
}

// checkAnswer compares a response with its expected answer.
func checkAnswer(got *service.DiagnoseResponse, want expectItem) error {
	if got == nil {
		return fmt.Errorf("no response")
	}
	if got.Dict != serveDicts[want.Dict].ID || got.K != want.K || len(got.Ranking) != len(want.Ranking) {
		return fmt.Errorf("%s: dict %q k %d with %d entries, want %q k %d with %d",
			serveDicts[want.Dict].ID, got.Dict, got.K, len(got.Ranking), serveDicts[want.Dict].ID, want.K, len(want.Ranking))
	}
	for i, e := range want.Ranking {
		if got.Ranking[i] != e {
			return fmt.Errorf("%s die %d: rank %d is %+v, want %+v", got.Dict, want.Die, i+1, got.Ranking[i], e)
		}
	}
	return nil
}

// opKey carries a client request's operation id from the router's
// handler into its upstream attempts.
type opKey struct{}

const opHeader = "X-Perfbench-Op"

// tier is one running serving tier: replicas behind a router, reached
// through in-process transports.
type tier struct {
	Replicas []*service.Server
	Router   *service.Router
	URL      string
	Client   *http.Client
}

// loopback is an in-process http.RoundTripper: it hands each request
// to the handler of its host and returns the recorded response. The
// router and the replicas run their whole handlers, but no socket or
// connection-serving goroutine sits between them. Over real loopback
// sockets every hop parked a thread and woke it on the other vCPU, and
// on a shared 2-vCPU host that wake-up latency swung the same round
// from 0.31 to 0.50 s at equal CPU time (guest idle 5 vs 21 ticks a
// round): the benchmark measured the host's scheduler, not the
// program.
type loopback map[string]http.Handler

func (l loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := l[req.URL.Host]
	if !ok {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("perfbench: no handler at %s", req.URL.Host)
	}
	in := req.Clone(req.Context())
	if in.Body == nil {
		in.Body = http.NoBody
	}
	in.RequestURI = req.URL.RequestURI()
	in.RemoteAddr = "127.0.0.1:1"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	in.Body.Close()
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// timedHandler records a span per call of h when tracing.
func timedHandler(h http.Handler, tr *atomic.Pointer[tracer], layer string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		if t == nil || !strings.HasPrefix(r.URL.Path, "/v1/diagnose") {
			h.ServeHTTP(w, r)
			return
		}
		op := int64(-1)
		if v, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64); err == nil {
			op = v
			r = r.WithContext(context.WithValue(r.Context(), opKey{}, op))
		}
		end := t.begin(layer, "", op)
		h.ServeHTTP(w, r)
		end(1)
	})
}

// timedTransport times the router's upstream round trips, body read
// included, when tracing.
type timedTransport struct {
	base http.RoundTripper
	tr   *atomic.Pointer[tracer]
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	op, ok := req.Context().Value(opKey{}).(int64)
	if !ok {
		// Health probes and rebalance inventories: not request work.
		return t.base.RoundTrip(req)
	}
	end := tr.begin("upstream", "router", op)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end(0)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func(int64)
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(func() { e.end(1) })
	return err
}

// startTier writes the dictionaries to dir and starts the replicas and
// the router, configured as ddd-serve and ddd-serve -router configure
// them by default except for the cache budget and the worker counts.
func startTier(sd *serveData, dir string, tr *atomic.Pointer[tracer]) (*tier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var total int64
	for i, cd := range sd.CDs {
		path := filepath.Join(dir, serveDicts[i].ID+".dict")
		if err := cd.SaveFileAtomic(path, len(sd.Circuits[i].Inputs)); err != nil {
			return nil, err
		}
		total += entryBytes(cd, len(sd.Circuits[i].Inputs))
	}
	t := &tier{}
	// The router knows the replicas by fixed names: the consistent-hash
	// ring hashes replica URLs, so the names fix the dictionaries'
	// placement, and so the cache misses, for every run.
	var urls []string
	replicas := loopback{}
	for i := 0; i < serveReplicas; i++ {
		srv, err := service.New(service.Config{
			Dir:          dir,
			CacheBytes:   int64(serveCacheShare * float64(total)),
			CacheShards:  1,
			Workers:      benchWorkers,
			BatchWorkers: benchWorkers,
			LoadRetries:  2,
		})
		if err != nil {
			t.stop()
			return nil, err
		}
		t.Replicas = append(t.Replicas, srv)
		name := fmt.Sprintf("replica-%d.perfbench:80", i)
		replicas[name] = timedHandler(srv.Handler(), tr, "replica")
		urls = append(urls, "http://"+name)
	}
	rt, err := service.NewRouter(service.RouterConfig{
		Replicas:         urls,
		HedgeAfter:       30 * time.Millisecond,
		MaxHedges:        1,
		RequestTimeout:   failedLatency,
		Client:           &http.Client{Transport: &timedTransport{base: replicas, tr: tr}},
		HealthInterval:   2 * time.Second,
		HealthTimeout:    2 * time.Second,
		FailAfter:        3,
		RecoverAfter:     2,
		BreakerFailures:  3,
		BreakerCooldown:  2 * time.Second,
		BreakerSuccesses: 2,
		RebalanceWorkers: 2,
		RebalanceRetries: 3,
	})
	if err != nil {
		t.stop()
		return nil, err
	}
	t.Router = rt
	const routerHost = "router.perfbench:80"
	t.URL = "http://" + routerHost
	t.Client = &http.Client{Transport: loopback{routerHost: timedHandler(rt.Handler(), tr, "router")}}
	return t, nil
}

// entryBytes is the resident size the service's cache charges for a
// dictionary (its loader's accounting).
func entryBytes(cd *core.CompressedDictionary, nInputs int) int64 {
	return int64(cd.Bytes()) + int64(len(cd.Patterns))*int64(2*nInputs+32) + int64(len(cd.Suspects))*4 + 256
}

// stop shuts the router and the replicas down and waits for them.
func (t *tier) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.Router != nil {
		t.Router.Close()
	}
	for _, s := range t.Replicas {
		_ = s.Shutdown(ctx)
	}
}

// warm waits until the router reports every replica ready and sends
// one request per dictionary, so that rounds start from a filled cache.
func (t *tier) warm(plan []plannedRequest) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := t.Client.Get(t.URL + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router not ready after 20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	seen := map[int]bool{}
	for _, p := range plan {
		if p.Path != "/v1/diagnose" || p.Malformed || seen[p.Items[0].Dict] {
			continue
		}
		seen[p.Items[0].Dict] = true
		if err := t.do(p, -1); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// do sends one planned request and checks every answer in it; a
// malformed request must be answered 400.
func (t *tier) do(p plannedRequest, op int64) error {
	req, err := http.NewRequest(http.MethodPost, t.URL+p.Path, bytes.NewReader(p.Body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if op >= 0 {
		req.Header.Set(opHeader, fmt.Sprint(op))
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if p.Malformed {
		if resp.StatusCode != http.StatusBadRequest {
			return fmt.Errorf("malformed %s: status %d, want 400: %s", p.Body, resp.StatusCode, bytes.TrimSpace(body))
		}
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", p.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	var got []*service.DiagnoseResponse
	if p.Path == "/v1/diagnose" {
		var one service.DiagnoseResponse
		if err := json.Unmarshal(body, &one); err != nil {
			return err
		}
		got = append(got, &one)
	} else {
		var br service.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return err
		}
		if len(br.Results) != len(p.Items) || br.Failed != 0 {
			return fmt.Errorf("batch: %d results, %d failed, want %d results", len(br.Results), br.Failed, len(p.Items))
		}
		for i, it := range br.Results {
			if it.Index != i || it.Status != http.StatusOK {
				return fmt.Errorf("batch item %d: index %d status %d %s", i, it.Index, it.Status, it.Error)
			}
			got = append(got, it.Response)
		}
	}
	for i, want := range p.Items {
		if err := checkAnswer(got[i], want); err != nil {
			return err
		}
	}
	return nil
}

// roundResult is one round of the plan, driven by closed-loop clients.
type roundResult struct {
	Wall    time.Duration
	Lat     []time.Duration // one per request, failedLatency when it failed
	Failed  int
	Errs    []error
	From    int64 // tracer window
	To      int64
	Cluster service.Stats
}

// runRound sends the whole plan from serveClients closed-loop clients.
func (t *tier) runRound(plan []plannedRequest, tr *tracer, opBase int64) roundResult {
	res := roundResult{Lat: make([]time.Duration, len(plan))}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	res.From = tr.mark()
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(plan) {
					return
				}
				op := opBase + int64(k)
				end := tr.begin("request", "", op)
				s := time.Now()
				err := t.do(plan[k], op)
				d := time.Since(s)
				end(1)
				if err != nil {
					d = failedLatency
					mu.Lock()
					res.Failed++
					if len(res.Errs) < 3 {
						res.Errs = append(res.Errs, err)
					}
					mu.Unlock()
				}
				res.Lat[k] = d
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(t0)
	res.To = tr.mark()
	return res
}

// clusterStats sums the replicas' counters.
func (t *tier) clusterStats() service.Stats {
	var sum service.Stats
	for _, s := range t.Replicas {
		st := s.Stats()
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		sum.Cache.Loads += st.Cache.Loads
		sum.Cache.Evictions += st.Cache.Evictions
		sum.Pool.Rejected += st.Pool.Rejected
	}
	return sum
}

// counters are process-wide obs counters of the program. They see
// work in layers the benchmark does not call itself, such as a
// statistical-timing or dictionary-build call inside a served request.
type counters struct {
	TimingSamples float64 // ddd_timing_samples_total + ddd_timing_arrival_evals_total
	DictBuilds    float64 // ddd_core_dict_builds_total, every engine
	Diagnoses     float64 // ddd_core_diagnoses_total
}

// readCounters scrapes the default obs registry.
func readCounters() counters {
	var sb strings.Builder
	if err := obs.Default().WriteText(&sb); err != nil {
		return counters{math.NaN(), math.NaN(), math.NaN()}
	}
	var c counters
	for _, line := range strings.Split(sb.String(), "\n") {
		var dst *float64
		switch name, _, _ := strings.Cut(line, " "); {
		case strings.HasPrefix(name, "ddd_timing_samples_total"), strings.HasPrefix(name, "ddd_timing_arrival_evals_total"):
			dst = &c.TimingSamples
		case strings.HasPrefix(name, "ddd_core_dict_builds_total"):
			dst = &c.DictBuilds
		case strings.HasPrefix(name, "ddd_core_diagnoses_total"):
			dst = &c.Diagnoses
		default:
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			v = math.NaN()
		}
		*dst += v
	}
	return c
}

func (c counters) sub(d counters) counters {
	return counters{c.TimingSamples - d.TimingSamples, c.DictBuilds - d.DictBuilds, c.Diagnoses - d.Diagnoses}
}

func (c counters) add(d counters) counters {
	return counters{c.TimingSamples + d.TimingSamples, c.DictBuilds + d.DictBuilds, c.Diagnoses + d.Diagnoses}
}

// runServe runs the serve-routed workload.
func runServe(opts options) (*outcome, error) {
	var trPtr atomic.Pointer[tracer]
	var (
		sd     *serveData
		t      *tier
		plan   []plannedRequest
		setups []time.Duration
	)
	for i := 0; i < serveSetupRepeats; i++ {
		if t != nil {
			t.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if sd, err = loadServeData(opts.Seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if plan, err = planRequests(sd, opts.Seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if t, err = startTier(sd, filepath.Join(opts.WorkDir, fmt.Sprintf("dicts-%d", i)), &trPtr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := t.warm(plan); err != nil {
			t.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer t.stop()

	out := &outcome{}
	tr := newTracer()
	var plainRounds, tracedRounds []roundResult
	var stats0, stats1 service.Stats
	var mem0 memSnap
	var memAlloc, memGC uint64
	var ctr0, ctrDelta counters
	minRounds := 1
	if opts.Trace {
		minRounds = 2
	}
	err := rounds(opts.Budget, minRounds, func(r int) (time.Duration, error) {
		traced := opts.Trace && (r+int(opts.Seed))%2 == 1
		var rt *tracer
		if traced {
			rt = tr
			trPtr.Store(tr)
			stats0 = t.clusterStats()
			mem0 = readMem()
			ctr0 = readCounters()
		}
		res := t.runRound(plan, rt, int64(r*len(plan)))
		if traced {
			trPtr.Store(nil)
			stats1 = t.clusterStats()
			m1 := readMem()
			memAlloc += m1.alloc - mem0.alloc
			memGC += m1.gc - mem0.gc
			ctrDelta = ctrDelta.add(readCounters().sub(ctr0))
			res.Cluster = service.Stats{Cache: service.CacheStats{
				Hits: stats1.Cache.Hits - stats0.Cache.Hits, Misses: stats1.Cache.Misses - stats0.Cache.Misses,
				Loads: stats1.Cache.Loads - stats0.Cache.Loads, Evictions: stats1.Cache.Evictions - stats0.Cache.Evictions,
			}, Pool: service.PoolStats{Rejected: stats1.Pool.Rejected - stats0.Pool.Rejected}}
			tracedRounds = append(tracedRounds, res)
		} else {
			plainRounds = append(plainRounds, res)
		}
		out.Attempted += int64(len(plan))
		out.Failed += int64(res.Failed)
		for _, e := range res.Errs {
			fmt.Fprintf(os.Stderr, "perfbench: round %d: %v\n", r, e)
		}
		return res.Wall, nil
	})
	if err != nil {
		return nil, err
	}

	var walls []time.Duration
	var lats [][]time.Duration
	var rates []float64
	for _, r := range plainRounds {
		walls = append(walls, r.Wall)
		lats = append(lats, r.Lat)
		rates = append(rates, float64(len(r.Lat)-r.Failed)/r.Wall.Seconds())
	}
	p50, p90 := latencies(lats)
	out.E2E = map[string]float64{
		"run_s":          median(seconds(walls)),
		"latency_ms.p50": p50,
		"latency_ms.p90": p90,
		"throughput_ops": median(rates),
		"setup_s":        median(seconds(setups)),
		"peak_rss_mb":    peakRSSMB(),
	}
	if opts.Trace {
		layer, err := serveLayers(sd, plan, opts.WorkDir, tr, tracedRounds, plainRounds, memAlloc, memGC, ctrDelta)
		if err != nil {
			return nil, err
		}
		out.Layer = layer
		if err := checkServeBusy(tr, tracedRounds); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			out.Failed++
		}
		if ctrDelta.TimingSamples != 0 || ctrDelta.DictBuilds != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: serving ran %g timing samples and %g dictionary builds\n", ctrDelta.TimingSamples, ctrDelta.DictBuilds)
			out.Failed++
		}
		path, err := tr.write(traceDir, fmt.Sprintf("serve-routed-seed%d.jsonl", opts.Seed))
		if err != nil {
			return nil, err
		}
		out.Report = layerTable(fmt.Sprintf("serve-routed seed=%d: per-layer split over %d traced round(s), %d request(s) each (spans: %s)\n%s",
			opts.Seed, len(tracedRounds), len(plan), path, trafficShares(plan)), out.Layer)
	}
	return out, nil
}

// serveLayers computes the serving tier's per-layer metrics from the
// traced rounds, plus the persistence and scoring layers timed
// directly on the same dictionaries and matrices. ATPG, clock
// selection, behavior simulation and suspect pruning have no process
// counter and the benchmark never calls them here, so their metrics
// read 0 by construction; statistical timing, dictionary builds and
// rankings are read from the process counters over the traced rounds.
func serveLayers(sd *serveData, plan []plannedRequest, workDir string, tr *tracer, traced, plain []roundResult, alloc, gc uint64, ctr counters) (map[string]float64, error) {
	var spans []span
	var tracedWalls, plainWalls []time.Duration
	var hits, misses, loads, evictions, rejected int64
	for _, r := range traced {
		spans = append(spans, tr.window(r.From, r.To)...)
		tracedWalls = append(tracedWalls, r.Wall)
		hits += r.Cluster.Cache.Hits
		misses += r.Cluster.Cache.Misses
		loads += r.Cluster.Cache.Loads
		evictions += r.Cluster.Cache.Evictions
		rejected += r.Cluster.Pool.Rejected
	}
	for _, r := range plain {
		plainWalls = append(plainWalls, r.Wall)
	}
	rounds := float64(len(traced))

	// Per request: client latency, and the union of its upstream
	// attempts (hedges overlap their primary).
	reqs := map[int64]span{}
	ups := map[int64][]span{}
	var replica []time.Duration
	var attempts int64
	var requestSpans []span
	for _, s := range spans {
		switch s.Layer {
		case "request":
			reqs[s.Op] = s
			requestSpans = append(requestSpans, s)
		case "upstream":
			ups[s.Op] = append(ups[s.Op], s)
			attempts++
		case "replica":
			replica = append(replica, s.dur())
		}
	}
	var self []float64
	for op, s := range reqs {
		self = append(self, float64(s.dur()-unionLen(ups[op]))/float64(time.Millisecond))
	}

	loadMS, err := timeLoads(sd, workDir)
	if err != nil {
		return nil, err
	}
	scoreUS := timeScores(sd, plan)

	wall := sum(tracedWalls).Seconds()
	return map[string]float64{
		"atpg.busy_s":               0,
		"atpg.share":                0,
		"atpg.calls":                0,
		"atpg.patterns":             0,
		"atpg.yield":                0,
		"clk_select.busy_s":         0,
		"clk_select.calls":          0,
		"behavior_sim.busy_s":       0,
		"behavior_sim.patterns":     0,
		"behavior_sim.failing_frac": 0,
		"suspects.busy_s":           0,
		"suspects.count":            0,
		"suspects.strict_frac":      0,
		"dict_build.busy_s":         0,
		"dict_build.calls":          ctr.DictBuilds / rounds,
		"dict_build.share":          0,
		"dict_build.cells":          0,
		"dict_build.cells_per_s":    0,
		"diagnose.busy_s":           0,
		"diagnose.rankings":         ctr.Diagnoses / rounds,
		"diagnose.hit_rate.rev":     servedHitRate(plan),
		"timing.samples":            ctr.TimingSamples / rounds,
		"other_s":                   (wall - unionLen(requestSpans).Seconds()) / rounds,
		"run.alloc_mb":              float64(alloc) / (1 << 20) / rounds,
		"run.gc_cycles":             float64(gc) / rounds,
		"router.self_ms.p50":        median(self),
		"router.attempts_per_req":   ratio(float64(attempts), float64(len(reqs))),
		"replica.handler_ms.p50":    median(millis(replica)),
		"replica.handler_ms.p99":    quantile(millis(replica), 0.99),
		"pool.rejected":             float64(rejected) / rounds,
		"cache.hit_ratio":           ratio(float64(hits), float64(hits+misses)),
		"cache.loads":               float64(loads) / rounds,
		"cache.evictions":           float64(evictions) / rounds,
		"persist.load_ms":           loadMS,
		"score.busy_us":             scoreUS,
		"trace.overhead_frac":       median(seconds(tracedWalls))/median(seconds(plainWalls)) - 1,
	}, nil
}

// trafficShares describes a plan as measured shares of the traffic
// model's classes.
func trafficShares(plan []plannedRequest) string {
	var malformed, batches, diagnoses, hot int
	for _, p := range plan {
		switch {
		case p.Malformed:
			malformed++
		case p.Path == "/v1/diagnose/batch":
			batches++
		}
		for _, it := range p.Items {
			diagnoses++
			if it.Dict == 0 {
				hot++
			}
		}
	}
	n := float64(len(plan))
	return fmt.Sprintf("traffic: malformed %.3f, batch %.3f of requests; %.2f diagnoses per batch; hot dictionary %.3f of diagnoses",
		float64(malformed)/n, float64(batches)/n, ratio(float64(diagnoses-(len(plan)-malformed-batches)), float64(batches)), ratio(float64(hot), float64(diagnoses)))
}

// servedHitRate is the share of the plan's diagnoses whose true
// defect arc is within the returned ranking.
func servedHitRate(plan []plannedRequest) float64 {
	n, hits := 0, 0
	for _, p := range plan {
		for _, it := range p.Items {
			n++
			if it.Hit {
				hits++
			}
		}
	}
	return ratio(float64(hits), float64(n))
}

// timeLoads times core.LoadCompressed on every dictionary file, three
// times each, and returns the median load in milliseconds.
func timeLoads(sd *serveData, workDir string) (float64, error) {
	dir := filepath.Join(workDir, "persist")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var ds []time.Duration
	for i, cd := range sd.CDs {
		path := filepath.Join(dir, serveDicts[i].ID+".dict")
		if err := cd.SaveFileAtomic(path, len(sd.Circuits[i].Inputs)); err != nil {
			return 0, err
		}
		for rep := 0; rep < 3; rep++ {
			f, err := os.Open(path)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			_, _, err = core.LoadCompressed(f)
			ds = append(ds, time.Since(t0))
			f.Close()
			if err != nil {
				return 0, err
			}
		}
	}
	return median(millis(ds)), nil
}

// timeScores times CompressedDictionary.Diagnose on every diagnosis of
// the plan and returns the median in microseconds.
func timeScores(sd *serveData, plan []plannedRequest) float64 {
	var us []float64
	for _, p := range plan {
		for _, it := range p.Items {
			b := sd.Dies[it.Dict][it.Die].B
			t0 := time.Now()
			_ = sd.CDs[it.Dict].Diagnose(b, core.AlgRev)
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return median(us)
}

// checkServeBusy verifies the tracer's bookkeeping: no layer can be
// busy for longer than the rounds it was traced in.
func checkServeBusy(tr *tracer, traced []roundResult) error {
	for _, r := range traced {
		agg := aggregate(tr.window(r.From, r.To))
		for layer, st := range agg {
			if st.Busy > r.Wall {
				return fmt.Errorf("layer %s busy %v exceeds round wall time %v", layer, st.Busy, r.Wall)
			}
		}
	}
	return nil
}
