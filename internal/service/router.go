package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Router fronts N ddd-serve replicas with consistent-hash dictionary
// placement and hedged failover. It is a thin, stateless tier: every
// routing decision is a pure function of the replica list (ring.go),
// every forwarded body is the client's raw bytes, and every response
// the client sees is a replica's raw bytes — so the router inherits
// the replicas' byte-determinism contract: for the same request, the
// routed response is byte-identical to a single-node ddd-serve.
//
// Tail-latency control is hedging: the request goes to the
// dictionary's owner first; if no answer arrives within HedgeAfter,
// the same request is launched against the next distinct replica on
// the ring (the loser is cancelled through its request context the
// moment a winner lands). Transport errors and retryable statuses
// (404/429/502/503/504) fail over to the next replica immediately.
// Both ladders are bounded by MaxHedges.
//
// The tier is self-healing: membership is dynamic (membership.go,
// admin join/leave plus replicas-file reload), replicas are actively
// health-checked with hysteresis (health.go), per-replica circuit
// breakers skip dead targets at request speed (breaker.go), and every
// membership transition triggers an automatic dictionary rebalance
// over the SHA-256-verified snapshot channel (rebalance.go), with the
// overlay proxying to the old owner until the new one is warm.
type RouterConfig struct {
	// Replicas are the backend base URLs ("http://host:port"). At
	// least one is required; order is irrelevant (the ring sorts).
	Replicas []string
	// VNodes is the ring's virtual-node count per replica (default 64).
	VNodes int
	// HedgeAfter is the latency budget before a hedge fires (default
	// 30ms). The p99 of the healthy path should sit well under it —
	// hedges are for stragglers, not for routine load spreading.
	HedgeAfter time.Duration
	// MaxHedges bounds extra attempts beyond the first (default 1;
	// 0 disables hedging and failover consults only the owner).
	MaxHedges int
	// RequestTimeout bounds one routed request end to end, all
	// attempts included (default 10s).
	RequestTimeout time.Duration
	// Client is the upstream HTTP client (default: a fresh
	// http.Client; per-attempt deadlines come from request contexts).
	Client *http.Client

	// HealthInterval is the per-replica health-probe cadence. Zero
	// disables active health checking: membership stays whatever the
	// admin endpoints make it (the PR-8 static behavior, and what unit
	// tests use for determinism). ddd-serve defaults it on.
	HealthInterval time.Duration
	// HealthTimeout bounds one /readyz probe (default 2s, clamped to
	// HealthInterval when that is shorter).
	HealthTimeout time.Duration
	// FailAfter is the consecutive probe failures that demote a member
	// out of the ring (default 3).
	FailAfter int
	// RecoverAfter is the consecutive probe successes that promote a
	// down member back (default 2).
	RecoverAfter int

	// BreakerFailures is the consecutive transport errors that open a
	// replica's circuit (default 3).
	BreakerFailures int
	// BreakerSuccesses is the consecutive half-open probe successes
	// that close it again (default 2).
	BreakerSuccesses int
	// BreakerCooldown is how long an open circuit rejects before
	// admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration

	// RebalanceWorkers bounds concurrent snapshot transfers during a
	// rebalance pass (default 2).
	RebalanceWorkers int
	// RebalanceRetries is the per-transfer retry budget beyond the
	// first attempt (default 3).
	RebalanceRetries int
	// JournalPath, when set, appends a JSONL record per planned and
	// finished transfer; on startup a journal whose tail holds
	// unfinished plans kicks an immediate reconcile (restart resume).
	JournalPath string

	// now is the breaker clock seam for tests (default time.Now).
	now func() time.Time
}

func (cfg *RouterConfig) applyDefaults() {
	if cfg.VNodes <= 0 {
		cfg.VNodes = defaultVNodes
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 30 * time.Millisecond
	}
	if cfg.MaxHedges < 0 {
		cfg.MaxHedges = 0
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
}

// faultProxyError makes one router attempt fail with a synthetic
// transport error before contacting the replica — the deterministic
// stand-in for a mid-request connection drop. It trips circuit
// breakers exactly like a real dial failure.
var faultProxyError = fault.Register("proxy-error")

// errAllBreakersOpen is forward's fast-fail when every target on the
// attempt ladder has an open circuit: no connection is attempted and
// the client gets an immediate 503.
var errAllBreakersOpen = errors.New("service: every replica circuit is open")

// Router is the sharded serving tier's front door.
type Router struct {
	cfg RouterConfig
	mux *http.ServeMux

	ms       *Membership
	breakers *breakerSet
	reb      *rebalancer
	prober   *prober

	reg       *obs.Registry
	forwards  *obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter
	failovers *obs.Counter
	upErrors  *obs.Counter
	fastFails *obs.Counter
	latency   *obs.Histogram

	// metricMu guards metricReplicas, the set of replica URLs whose
	// per-replica gauges are registered (obs panics on duplicates, and
	// replicas can join at runtime).
	metricMu       sync.Mutex
	metricReplicas map[string]bool

	closeOnce sync.Once
	httpSrv   *http.Server
	ln        net.Listener
}

// NewRouter builds a router over cfg.Replicas and starts its
// background machinery (rebalancer loop; health probers when
// HealthInterval > 0). Callers that never Start a listener must still
// Close (Shutdown implies it).
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg.applyDefaults()
	ms, err := newMembership(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:            cfg,
		ms:             ms,
		breakers:       newBreakerSet(cfg.BreakerFailures, cfg.BreakerSuccesses, cfg.BreakerCooldown, cfg.now),
		reg:            obs.NewRegistry(),
		metricReplicas: make(map[string]bool),
	}
	rt.forwards = rt.reg.Counter("ddd_router_forwards_total",
		"requests forwarded to replicas (first attempts)", nil)
	rt.hedges = rt.reg.Counter("ddd_router_hedges_total",
		"hedge attempts launched after the latency budget expired", nil)
	rt.hedgeWins = rt.reg.Counter("ddd_router_hedge_wins_total",
		"requests answered by a hedge attempt rather than the first", nil)
	rt.failovers = rt.reg.Counter("ddd_router_failovers_total",
		"attempts relaunched after a transport error or retryable status", nil)
	rt.upErrors = rt.reg.Counter("ddd_router_upstream_errors_total",
		"attempts that ended in a transport error", nil)
	rt.fastFails = rt.reg.Counter("ddd_router_breaker_fast_fails_total",
		"requests rejected because every target circuit was open", nil)
	rt.latency = rt.reg.Histogram("ddd_router_request_duration_seconds",
		"routed request latency, all attempts included", nil, obs.LatencyBuckets)

	rt.reb, err = newRebalancer(rt)
	if err != nil {
		return nil, err
	}
	rt.reg.CounterFunc("ddd_rebalance_transfers_total",
		"rebalance snapshot transfers by outcome", obs.Labels{"result": "ok"},
		func() float64 { return float64(rt.reb.completed.Load()) })
	rt.reg.CounterFunc("ddd_rebalance_transfers_total",
		"rebalance snapshot transfers by outcome", obs.Labels{"result": "error"},
		func() float64 { return float64(rt.reb.failed.Load()) })
	rt.reg.CounterFunc("ddd_rebalance_transfers_total",
		"rebalance snapshot transfers by outcome", obs.Labels{"result": "unsourced"},
		func() float64 { return float64(rt.reb.unsourced.Load()) })
	rt.registerReplicaMetrics()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/diagnose", rt.timed(rt.handleDiagnose))
	mux.HandleFunc("POST /v1/diagnose/batch", rt.timed(rt.handleDiagnoseBatch))
	mux.HandleFunc("GET /v1/dicts", rt.timed(rt.handleDicts))
	mux.HandleFunc("GET /v1/dicts/{id}", rt.timed(rt.handleDictForward))
	mux.HandleFunc("GET /v1/dicts/{id}/snapshot", rt.timed(rt.handleDictForward))
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST /v1/admin/transfer", rt.handleTransfer)
	mux.HandleFunc("POST /v1/admin/replicas", rt.handleReplicas)
	rt.mux = mux

	// Health checking is opt-in (interval > 0): unit tests run static
	// memberships, deployments converge on boot. The rebalancer loop
	// always runs — admin joins need it — but only kicks immediately
	// when the tier self-heals or the journal demands a resume.
	rt.reb.start(cfg.HealthInterval > 0)
	if cfg.HealthInterval > 0 {
		rt.prober = newProber(rt)
		rt.prober.sync()
	}
	return rt, nil
}

// registerReplicaMetrics registers the per-replica gauges for every
// member not yet covered. Gauges are registered once per URL ever seen
// and keep reporting after a leave (up=0): obs series cannot be
// unregistered, and a flat zero beats a vanishing series mid-incident.
func (rt *Router) registerReplicaMetrics() {
	rt.metricMu.Lock()
	defer rt.metricMu.Unlock()
	for _, url := range rt.ms.MemberURLs() {
		if rt.metricReplicas[url] {
			continue
		}
		rt.metricReplicas[url] = true
		url := url
		rt.reg.GaugeFunc("ddd_replica_up",
			"1 when the replica is a live ring member", obs.Labels{"replica": url},
			func() float64 {
				if rt.ms.IsLive(url) {
					return 1
				}
				return 0
			})
		rt.reg.GaugeFunc("ddd_breaker_state",
			"replica circuit state (0 closed, 1 half-open, 2 open)", obs.Labels{"replica": url},
			func() float64 { return float64(rt.breakers.get(url).State()) })
	}
}

// membershipChanged runs the post-transition fan-out shared by the
// admin endpoints and ApplyReplicas: cover new members with metrics
// and probe loops, then let the rebalancer reconcile placement.
func (rt *Router) membershipChanged() {
	rt.registerReplicaMetrics()
	if rt.prober != nil {
		rt.prober.sync()
	}
	rt.reb.Kick()
}

// ApplyReplicas reconciles the membership to exactly urls (the
// -replicas-file reload path). Reports whether anything changed.
func (rt *Router) ApplyReplicas(urls []string) (bool, error) {
	changed, err := rt.ms.SetMembers(urls)
	if err != nil {
		return false, err
	}
	if changed {
		rt.membershipChanged()
	}
	return changed, nil
}

// Ring exposes the current placement ring (for tests and tooling).
func (rt *Router) Ring() *Ring { return rt.ms.Ring() }

// Membership exposes the dynamic replica view.
func (rt *Router) Membership() *Membership { return rt.ms }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

func (rt *Router) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		rt.latency.Observe(time.Since(start).Seconds())
	}
}

// owners returns the attempt ladder for key: the owner plus up to
// MaxHedges distinct successors on the current ring. While a
// rebalance is moving key's dictionary, the warm source replica is
// prepended — the new owner answers 404 until its snapshot lands, and
// routing to the source first keeps latency flat instead of paying a
// failover hop per request.
func (rt *Router) owners(key string) []string {
	ladder := rt.ms.Ring().Owners(key, 1+rt.cfg.MaxHedges)
	src, ok := rt.reb.redirect(key)
	if !ok {
		return ladder
	}
	out := make([]string, 0, len(ladder)+1)
	out = append(out, src)
	for _, t := range ladder {
		if t != src {
			out = append(out, t)
		}
	}
	return out
}

// upstreamResult is one attempt's complete response.
type upstreamResult struct {
	status int
	header http.Header
	body   []byte
}

// retryableStatus reports statuses a different replica might answer
// better: backpressure, drain, deadline, bad-gateway — and not-found.
// 404 joined the list with dynamic membership: mid-rebalance a
// dictionary's new owner answers 404 until its snapshot lands, and the
// ring's successor property makes the next rung of the ladder exactly
// the previous owner. A dictionary that exists nowhere still yields a
// single-node-identical 404 — every replica renders the same error
// bytes, and the ladder relays the last one.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusNotFound, http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

type attemptOutcome struct {
	idx int
	res *upstreamResult
	err error
}

// attempt performs one upstream request and reads the full response.
func (rt *Router) attempt(ctx context.Context, idx int, method, url, contentType string, body []byte) attemptOutcome {
	if faultProxyError.Hit() {
		rt.upErrors.Inc()
		return attemptOutcome{idx: idx, err: fmt.Errorf("service: injected proxy error for %s", url)}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return attemptOutcome{idx: idx, err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.upErrors.Inc()
		return attemptOutcome{idx: idx, err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rt.upErrors.Inc()
		return attemptOutcome{idx: idx, err: err}
	}
	return attemptOutcome{idx: idx, res: &upstreamResult{status: resp.StatusCode, header: resp.Header, body: data}}
}

// forward runs the hedged attempt ladder for one request over
// targets: attempt 0 goes to the owner immediately; each further
// attempt launches when the hedge timer expires or the newest
// outstanding attempt fails (transport error or retryable status).
// The first definitive response wins and every other in-flight
// attempt is cancelled through its context — the PR-4 plumbing
// (handler ctx -> batch ctx -> worker skip) turns that cancellation
// into a freed worker slot on the losing replica.
//
// Each launch consults the target's circuit breaker: open circuits
// are skipped without burning a connection, and if every target is
// open the request fast-fails with errAllBreakersOpen. Breaker
// verdicts come from the attempt itself — an answer of any status
// reports success (the replica is alive), a transport error reports
// failure, and a cancelled attempt (hedge loser, request timeout)
// reports nothing so losers never poison a circuit.
func (rt *Router) forward(ctx context.Context, method, path, contentType string, body []byte, targets []string) (*upstreamResult, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()
	rt.forwards.Inc()

	results := make(chan attemptOutcome, len(targets))
	cancels := make([]context.CancelFunc, len(targets))
	defer func() {
		for _, c := range cancels {
			if c != nil {
				c()
			}
		}
	}()
	next := 0
	firstLaunched := -1
	// launch starts the next target whose circuit admits a request,
	// skipping open breakers; it reports whether anything launched.
	launch := func() bool {
		for next < len(targets) {
			i := next
			next++
			br := rt.breakers.get(targets[i])
			if !br.Allow() {
				continue
			}
			if firstLaunched < 0 {
				firstLaunched = i
			}
			actx, acancel := context.WithCancel(ctx)
			cancels[i] = acancel
			go func() {
				out := rt.attempt(actx, i, method, targets[i]+path, contentType, body)
				if out.err != nil && actx.Err() != nil {
					br.Cancelled()
				} else {
					br.Report(out.err == nil)
				}
				results <- out
			}()
			return true
		}
		return false
	}
	if !launch() {
		rt.fastFails.Inc()
		return nil, errAllBreakersOpen
	}
	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()

	pending := 1
	var lastRes *upstreamResult
	var lastErr error
	for pending > 0 {
		select {
		case out := <-results:
			pending--
			if out.err == nil && !retryableStatus(out.res.status) {
				if out.idx > firstLaunched {
					rt.hedgeWins.Inc()
				}
				return out.res, nil
			}
			if out.err != nil {
				lastErr = out.err
			} else {
				lastRes = out.res
			}
			// Immediate failover: the newest attempt failed, so the
			// hedge budget is moot — consult the next replica now.
			if launch() {
				rt.failovers.Inc()
				pending++
			}
		case <-timer.C:
			if launch() {
				rt.hedges.Inc()
				pending++
				timer.Reset(rt.cfg.HedgeAfter)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Every attempt failed. Prefer a structured upstream response
	// (404/429/503/504 with its headers) over a bare transport error.
	if lastRes != nil {
		return lastRes, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, errAllBreakersOpen
}

// writeForwardError maps forward's terminal errors onto client
// responses: a breaker fast-fail is backpressure (503, retryable), an
// exhausted ladder is a bad gateway.
func (rt *Router) writeForwardError(w http.ResponseWriter, err error) {
	if errors.Is(err, errAllBreakersOpen) {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeError(w, http.StatusBadGateway, "all replicas failed: "+err.Error())
}

// writeUpstream relays a replica's response verbatim: status, body
// bytes, and the headers that carry contract (content type, retry
// hint). Byte-determinism of routed responses rests on this being a
// pure copy.
func writeUpstream(w http.ResponseWriter, res *upstreamResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// readBody reads the request body under the same byte cap the
// replicas apply, so an oversized body produces the same 400 here as
// it would on a single node.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	return body, true
}

// handleDiagnose routes POST /v1/diagnose: peek the dictionary id
// (tolerantly — a malformed body routes deterministically to the
// empty key's owner, whose strict decoder produces the exact error a
// single node would), then forward the raw bytes hedged.
func (rt *Router) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	res, err := rt.forward(r.Context(), http.MethodPost, "/v1/diagnose", "application/json", body, rt.owners(keyOf(body)))
	if err != nil {
		rt.writeForwardError(w, err)
		return
	}
	writeUpstream(w, res)
}

// rawBatchItem mirrors BatchItem with the Response kept as raw bytes,
// so merging sub-batches re-emits each replica's exact marshaling.
// Field order matches BatchItem's declaration order — that is what
// makes the merged document byte-identical to a single node's.
type rawBatchItem struct {
	Index    int             `json:"index"`
	Status   int             `json:"status"`
	Error    string          `json:"error,omitempty"`
	Code     string          `json:"code,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

type rawBatchResponse struct {
	Results []rawBatchItem `json:"results"`
	Failed  int            `json:"failed"`
}

// handleDiagnoseBatch routes POST /v1/diagnose/batch. Items are
// grouped by their dictionary's owner; each owner receives one
// sub-batch (hedged like a single request) and the answers are
// merged back in request order with indices rewritten. Bodies the
// router cannot parse exactly as a replica would (strict decode,
// size/item caps) are forwarded whole to a deterministic replica so
// the error response still matches a single node's bytes.
func (rt *Router) handleDiagnoseBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	forwardWhole := func(key string) {
		res, err := rt.forward(r.Context(), http.MethodPost, "/v1/diagnose/batch", "application/json", body, rt.owners(key))
		if err != nil {
			rt.writeForwardError(w, err)
			return
		}
		writeUpstream(w, res)
	}
	// The strict peek mirrors the replica's own decode; any
	// divergence (unknown fields, bad JSON, caps) routes the original
	// bytes to a replica for the authoritative error.
	var breq struct {
		Requests []json.RawMessage `json:"requests"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil ||
		len(breq.Requests) == 0 || len(breq.Requests) > maxBatchItems {
		forwardWhole("")
		return
	}

	// Group items by owner, preserving request order within a group.
	type group struct {
		owner   string
		indices []int
		items   []json.RawMessage
	}
	groups := make(map[string]*group)
	order := make([]string, 0, 4) // owners in first-appearance order
	ring := rt.ms.Ring()          // one snapshot for the whole batch
	for i, item := range breq.Requests {
		owner := ring.Owner(keyOf(item))
		g, okg := groups[owner]
		if !okg {
			g = &group{owner: owner}
			groups[owner] = g
			order = append(order, owner)
		}
		g.indices = append(g.indices, i)
		g.items = append(g.items, item)
	}
	if len(order) == 1 {
		// One owner holds every dictionary in the batch: forward the
		// client's bytes untouched.
		forwardWhole(keyOf(groups[order[0]].items[0]))
		return
	}

	// Fan the sub-batches out concurrently; each is hedged on its own
	// owner's ladder.
	type subResult struct {
		g   *group
		res *upstreamResult
		err error
	}
	results := make([]subResult, len(order))
	done := make(chan int, len(order))
	for gi, owner := range order {
		gi, g := gi, groups[owner]
		go func() {
			sub, err := json.Marshal(struct {
				Requests []json.RawMessage `json:"requests"`
			}{g.items})
			if err == nil {
				var res *upstreamResult
				res, err = rt.forward(r.Context(), http.MethodPost, "/v1/diagnose/batch", "application/json", sub, rt.owners(keyOf(g.items[0])))
				results[gi] = subResult{g: g, res: res, err: err}
			} else {
				results[gi] = subResult{g: g, err: err}
			}
			done <- gi
		}()
	}
	for range order {
		<-done
	}

	// A failed sub-batch fails the whole request the way a single
	// node's shed would; pick the failure deterministically (first
	// owner in canonical order) so the response does not depend on
	// goroutine scheduling.
	sort.Slice(results, func(i, j int) bool { return results[i].g.owner < results[j].g.owner })
	for _, sr := range results {
		if sr.err != nil {
			rt.writeForwardError(w, sr.err)
			return
		}
		if sr.res.status != http.StatusOK {
			writeUpstream(w, sr.res)
			return
		}
	}

	merged := rawBatchResponse{Results: make([]rawBatchItem, len(breq.Requests))}
	for _, sr := range results {
		var sub rawBatchResponse
		if err := json.Unmarshal(sr.res.body, &sub); err != nil || len(sub.Results) != len(sr.g.indices) {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("replica %s returned an unmergeable batch response", sr.g.owner))
			return
		}
		for k, item := range sub.Results {
			item.Index = sr.g.indices[k]
			merged.Results[item.Index] = item
		}
		merged.Failed += sub.Failed
	}
	writeJSON(w, http.StatusOK, merged)
}

// keyOf peeks the routing key (dictionary id) out of one diagnose
// request body or batch item. Errors are deliberately ignored: the
// replica owns rejection.
func keyOf(item json.RawMessage) string {
	var peek struct {
		Dict string `json:"dict"`
	}
	_ = json.Unmarshal(item, &peek)
	return peek.Dict
}

// fanOut sends GET path to every replica in reps concurrently and
// returns the outcomes in reps order. Like forward, the whole fan-out
// is bounded by RequestTimeout, so one hung replica costs the caller a
// timeout error rather than an unanswered request.
func (rt *Router) fanOut(ctx context.Context, reps []string, path string) []attemptOutcome {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()
	outs := make([]attemptOutcome, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = rt.attempt(ctx, i, http.MethodGet, rep+path, "", nil)
		}()
	}
	wg.Wait()
	return outs
}

// handleDicts implements GET /v1/dicts as the union over the live
// replicas: a dictionary lists if any live replica has it, and counts
// as cached if it is resident anywhere. Sorted by id, deterministic.
// Down members are skipped — the listing keeps answering through a
// replica outage, which is the point of the health-checked view.
func (rt *Router) handleDicts(w http.ResponseWriter, r *http.Request) {
	type dictInfo struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	replicas := rt.ms.Live()
	union := make(map[string]bool)
	for i, fr := range rt.fanOut(r.Context(), replicas, "/v1/dicts") {
		if fr.err != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("replica %s: %v", replicas[i], fr.err))
			return
		}
		if fr.res.status != http.StatusOK {
			writeUpstream(w, fr.res)
			return
		}
		var doc struct {
			Dicts []dictInfo `json:"dicts"`
		}
		if err := json.Unmarshal(fr.res.body, &doc); err != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("replica %s: undecodable /v1/dicts", replicas[i]))
			return
		}
		for _, d := range doc.Dicts {
			union[d.ID] = union[d.ID] || d.Cached
		}
	}
	ids := make([]string, 0, len(union))
	for id := range union {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := struct {
		Dicts []dictInfo `json:"dicts"`
	}{Dicts: make([]dictInfo, len(ids))}
	for i, id := range ids {
		out.Dicts[i] = dictInfo{ID: id, Cached: union[id]}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDictForward routes GET /v1/dicts/{id} and its snapshot to the
// id's owner, hedged like a diagnosis.
func (rt *Router) handleDictForward(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validID(id) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid dictionary id %q", id))
		return
	}
	path := "/v1/dicts/" + id
	if strings.HasSuffix(r.URL.Path, "/snapshot") {
		path += "/snapshot"
	}
	res, err := rt.forward(r.Context(), http.MethodGet, path, "", nil, rt.owners(id))
	if err != nil {
		rt.writeForwardError(w, err)
		return
	}
	if sha := res.header.Get(shaHeader); sha != "" {
		w.Header().Set(shaHeader, sha)
	}
	writeUpstream(w, res)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleReadyz aggregates replica readiness over the membership view:
// the router is ready when at least one member is live and every LIVE
// member answers /readyz 200. Down members are reported but do not
// gate — a tier that lost a replica and healed around it IS ready,
// which is the whole point of self-healing. (Before dynamic
// membership any single dead replica failed the aggregate.)
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type repReady struct {
		Replica string `json:"replica"`
		State   string `json:"state"`
		Ready   bool   `json:"ready"`
	}
	members := rt.ms.Members()
	states := make([]repReady, len(members))
	var up []string
	var upIdx []int
	for i, m := range members {
		states[i] = repReady{Replica: m.Replica, State: m.State}
		if m.State == "up" {
			up = append(up, m.Replica)
			upIdx = append(upIdx, i)
		}
	}
	ready := len(up) > 0
	for k, out := range rt.fanOut(r.Context(), up, "/readyz") {
		st := &states[upIdx[k]]
		st.Ready = out.err == nil && out.res.status == http.StatusOK
		ready = ready && st.Ready
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		Ready    bool       `json:"ready"`
		Replicas []repReady `json:"replicas"`
	}{ready, states})
}

// RouterStats is the /stats document of the router tier. Replicas is
// the current ring (live members); Members is the full configured
// view with health and breaker state, plus synthetic "draining"
// entries for departed replicas the rebalancer is still copying from.
type RouterStats struct {
	Replicas          []string       `json:"replicas"`
	VNodes            int            `json:"vnodes"`
	HedgeAfter        string         `json:"hedge_after"`
	MaxHedges         int            `json:"max_hedges"`
	Forwards          int64          `json:"forwards"`
	Hedges            int64          `json:"hedges"`
	HedgeWins         int64          `json:"hedge_wins"`
	Failovers         int64          `json:"failovers"`
	BreakerFastFails  int64          `json:"breaker_fast_fails"`
	MembershipVersion uint64         `json:"membership_version"`
	Members           []MemberStatus `json:"members"`
	Rebalance         RebalanceStats `json:"rebalance"`
}

// Stats snapshots the router counters and the membership view.
func (rt *Router) Stats() RouterStats {
	members := rt.ms.Members()
	breakers := rt.breakers.states()
	for i := range members {
		members[i].Breaker = breakers[members[i].Replica].String()
	}
	for _, src := range rt.reb.drainingSources() {
		members = append(members, MemberStatus{Replica: src, State: "draining", Breaker: breakers[src].String()})
	}
	return RouterStats{
		Replicas:          rt.ms.Ring().Replicas(),
		VNodes:            rt.cfg.VNodes,
		HedgeAfter:        rt.cfg.HedgeAfter.String(),
		MaxHedges:         rt.cfg.MaxHedges,
		Forwards:          int64(rt.forwards.Value()),
		Hedges:            int64(rt.hedges.Value()),
		HedgeWins:         int64(rt.hedgeWins.Value()),
		Failovers:         int64(rt.failovers.Value()),
		BreakerFastFails:  int64(rt.fastFails.Value()),
		MembershipVersion: rt.ms.Version(),
		Members:           members,
		Rebalance:         rt.reb.stats(),
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WriteText(w)
}

// handleTransfer implements POST /v1/admin/transfer: copy a
// dictionary snapshot between replicas (SHA-256 verified end to end,
// see TransferSnapshot). "from" defaults to the id's current owner;
// "to" is required — after a topology change the operator (or an
// orchestrator walking the ring diff) names the new owner here.
func (rt *Router) handleTransfer(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dict string `json:"dict"`
		From string `json:"from,omitempty"`
		To   string `json:"to"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if !validID(req.Dict) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid dictionary id %q", req.Dict))
		return
	}
	if req.To == "" {
		writeError(w, http.StatusBadRequest, "\"to\" replica is required")
		return
	}
	from := req.From
	if from == "" {
		from = rt.ms.Ring().Owner(req.Dict)
	}
	n, digest, err := TransferSnapshot(r.Context(), rt.cfg.Client, from, req.To, req.Dict)
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Dict   string `json:"dict"`
		From   string `json:"from"`
		To     string `json:"to"`
		Bytes  int    `json:"bytes"`
		Sha256 string `json:"sha256"`
	}{req.Dict, from, req.To, n, digest})
}

// handleReplicas implements POST /v1/admin/replicas: operator-driven
// membership changes. {"op":"join","replica":URL} adds a member (it
// starts live and the rebalancer immediately moves its ring share of
// dictionaries onto it); {"op":"leave","replica":URL} removes one (the
// replica may keep running — the rebalancer drains it as a snapshot
// source while its keys move to the survivors). Idempotent: repeating
// an op reports changed=false.
func (rt *Router) handleReplicas(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Op      string `json:"op"`
		Replica string `json:"replica"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var changed bool
	var err error
	switch req.Op {
	case "join":
		changed, err = rt.ms.Join(req.Replica)
	case "leave":
		changed, err = rt.ms.Leave(req.Replica)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown op %q (want \"join\" or \"leave\")", req.Op))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if changed {
		rt.membershipChanged()
	}
	writeJSON(w, http.StatusOK, struct {
		Op      string         `json:"op"`
		Replica string         `json:"replica"`
		Changed bool           `json:"changed"`
		Version uint64         `json:"membership_version"`
		Members []MemberStatus `json:"members"`
	}{req.Op, req.Replica, changed, rt.ms.Version(), rt.ms.Members()})
}

// Start listens on addr and serves in the background (same transport
// protections as Server.Start).
func (rt *Router) Start(addr string) error {
	ln, srv, err := listenAndServe(addr, rt.mux, rt.cfg.RequestTimeout)
	if err != nil {
		return err
	}
	rt.ln, rt.httpSrv = ln, srv
	return nil
}

// Addr returns the bound listen address after Start.
func (rt *Router) Addr() string {
	if rt.ln == nil {
		return ""
	}
	return rt.ln.Addr().String()
}

// Close stops the router's background machinery — health probers,
// rebalancer loop, journal — without touching the listener. Safe to
// call more than once; Shutdown calls it.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		if rt.prober != nil {
			rt.prober.stop()
		}
		rt.reb.stopAll()
	})
}

// Shutdown stops the router gracefully: background machinery first,
// then the HTTP server. The replicas drain themselves; the router
// only has in-flight forwards to wait for.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.Close()
	if rt.httpSrv == nil {
		return nil
	}
	return rt.httpSrv.Shutdown(ctx)
}
