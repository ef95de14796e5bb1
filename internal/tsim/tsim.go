// Package tsim is the timed (waveform-level) simulator behind the
// paper's statistical dynamic timing simulation (Definition D.5).
// Given a fixed-delay circuit instance and a two-vector pattern, it
// propagates transitions event-by-event under the transport-delay model
// and samples every primary output at the cut-off period clk — exactly
// what a capture flop does. A pattern fails an output when the sampled
// value differs from the settled (logic-domain) value, which makes the
// error semantics of the behavior matrix B and of the critical
// probabilities crt_ij identical by construction.
//
// Timing model: each pin-to-pin arc is a pure transport delay line into
// an instantaneous boolean function, i.e. the output of gate g at time
// t is f(x_1(t-d_1), ..., x_n(t-d_n)) where d_k is the delay of the arc
// into pin k. Events therefore carry *pin* arrivals; an output commit
// happens at the moment a delayed pin value changes the function value.
// This evaluates late-arriving short paths and early-arriving long
// paths correctly, including hazards (glitches), which a capture at clk
// observes just as silicon would.
//
// The simulator supports defect overlays (extra delay on one arc, the
// single-defect model D_s) without copying the instance, and an
// incremental mode that re-simulates only the defect arc's fan-out
// cone against recorded baseline waveforms — the optimization that
// makes per-suspect fault dictionary construction tractable. Run
// simulates a pattern in full (RunPrepared is Run with the settled
// states precomputed), RunIncremental re-simulates a defect cone; both
// schedule into one event store and consume it with one drain loop.
package tsim

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// NoDefect marks the absence of a defect overlay.
const NoDefect circuit.ArcID = -1

// Options configures one timed simulation run.
type Options struct {
	// Horizon is the capture time (the cut-off period clk). Events
	// later than Horizon cannot change captured values and are
	// discarded. Use math.Inf(1) to simulate to quiescence.
	Horizon float64
	// DefectArc, if not NoDefect, adds DefectExtra to that arc's delay.
	DefectArc   circuit.ArcID
	DefectExtra float64
	// RecordWaveforms retains the full transition history of every
	// gate, enabling incremental re-simulation against this run.
	RecordWaveforms bool
}

// Step is one transition in a recorded waveform.
type Step struct {
	T float64
	V bool
}

// Result reports one timed simulation. Results are owned by the
// Engine that produced them and alias its scratch buffers: a Result is
// valid until the producing engine's next run (Run, RunPrepared or
// RunIncremental), after which its contents are overwritten. Callers
// that need to retain data across runs must copy it out.
type Result struct {
	// Capture[i] is the value of output i sampled at the horizon.
	Capture []bool
	// LastChange[i] is the time of the last committed transition at
	// output i within the horizon (0 when the output never changes).
	// With an infinite horizon this is the output's arrival time.
	LastChange []float64
	// Transitioned[g] reports whether gate g's output changed at least
	// once within the horizon.
	Transitioned []bool
	// Init and Final are the settled gate values under V1 and V2.
	Init, Final []bool
	// Waveforms[g] holds gate g's transitions when recording was
	// requested (nil otherwise). The initial value is Init[g].
	Waveforms [][]Step

	// prep is the PreparedInit the run reset from; incremental
	// re-simulation against this Result resets from it by memmove.
	prep *PreparedInit

	// src and gen identify the engine run that produced this Result.
	// RunIncremental uses them to recognize that the same baseline is
	// still loaded and replay its undo log instead of a full reset;
	// buffer reuse makes pointer identity of Init unusable for that.
	src *Engine
	gen uint64
}

// FailingOutputs returns indices of outputs whose captured value
// differs from the settled (logic-correct) value — the entries that
// would be 1 in the behavior matrix B for this pattern.
func (r *Result) FailingOutputs(c *circuit.Circuit) []int {
	var fails []int
	for i, o := range c.Outputs {
		if r.Capture[i] != r.Final[o] {
			fails = append(fails, i)
		}
	}
	return fails
}

// event is a pending pin arrival: the delayed value v of the driver of
// pin (g, pin) becomes visible to gate g's function at time t. seq
// breaks ties deterministically in schedule order.
type event struct {
	t   float64
	seq int32
	g   circuit.GateID
	pin int32
	v   bool
}

// lessEv orders events by (t, seq). Since seq values are unique, this
// is a strict total order: any correct min-heap pops the exact same
// event sequence, so the heap's arity and sift strategy are free
// performance parameters that cannot change simulation results.
func lessEv(a, b *event) bool {
	if a.t != b.t { //lint:ignore floateq event ordering needs the exact time; (t, seq) tie-break makes the order total either way
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap ordered by (t, seq). Event-queue
// operations dominate dictionary construction (≈60 % of build time
// under profile), so the heap is tuned: 4 children per node halve the
// tree depth against a binary heap (fewer cache lines touched per
// sift), and both sifts move a hole instead of swapping (one copy per
// level rather than three).
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !lessEv(&e, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if lessEv(&q[j], &q[m]) {
				m = j
			}
		}
		if !lessEv(&q[m], &last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}

// sortEvents sorts events ascending by (t, seq): quicksort with
// median-of-three pivots, recursing into the smaller partition, and
// insertion sort below a small cutoff. Keys are unique (seq values are
// distinct), so the sorted order — and hence the simulation schedule —
// is independent of the algorithm; it exists, instead of sort.Slice,
// to keep the per-run path free of interface-dispatch compares and
// closure allocations.
func sortEvents(a []event) {
	for len(a) > 12 {
		m := len(a) / 2
		last := len(a) - 1
		if lessEv(&a[m], &a[0]) {
			a[m], a[0] = a[0], a[m]
		}
		if lessEv(&a[last], &a[0]) {
			a[last], a[0] = a[0], a[last]
		}
		if lessEv(&a[last], &a[m]) {
			a[last], a[m] = a[m], a[last]
		}
		pivot := a[m]
		i, j := 0, last
		for i <= j {
			for lessEv(&a[i], &pivot) {
				i++
			}
			for lessEv(&pivot, &a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < len(a)-i {
			sortEvents(a[:j+1])
			a = a[i:]
		} else {
			sortEvents(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && lessEv(&a[j], &a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// fanRef is one precomputed fanout target of a gate: when the gate's
// output changes, the new value arrives at pin (g, pin) after the
// delay of arc. NewEngine flattens every gate's fanout pin list once,
// so commit walks a contiguous run instead of re-scanning each fanout
// gate's fan-in for matching pins on every event.
type fanRef struct {
	g   circuit.GateID
	pin int32
	arc circuit.ArcID
}

// Gate-mode bits for the counting evaluator: instead of re-evaluating
// a gate's function over its pin slice on every event, the engine
// maintains, per gate, the number of pins currently holding the
// class's counted value, and derives the output from that counter in
// O(1). The encoding covers the whole cell library:
//
//	AND/NAND/BUF/NOT/DFF/OUTPUT  count zeros; output = (count==0) ^ inv
//	OR/NOR                       count ones;  output = (count==0) ^ inv
//	XOR/XNOR                     count ones;  output = (count&1)   ^ inv
//
// This is the standard input-count technique for event-driven gate
// simulation; it computes the identical boolean function, so committed
// values — and therefore all results — are unchanged.
const (
	gmCV     = 1 << 0 // counted (controlling) value is 1; otherwise 0
	gmParity = 1 << 1 // output is the count's parity (XOR class)
	gmInv    = 1 << 2 // invert the class output
)

// gateMode returns the counting-evaluator mode bits for a cell type.
// Input/Const cells never receive pin events, so their mode is unused.
func gateMode(t circuit.CellType) uint8 {
	switch t {
	case circuit.Not, circuit.Nand:
		return gmInv
	case circuit.Or:
		return gmCV | gmInv
	case circuit.Nor:
		return gmCV
	case circuit.Xor:
		return gmCV | gmParity
	case circuit.Xnor:
		return gmCV | gmParity | gmInv
	default: // Buf, DFF, Output, And — and unused Input/Const modes
		return 0
	}
}

// Engine holds per-goroutine scratch state for repeated simulations of
// one circuit. Engines are not safe for concurrent use; create one per
// worker.
type Engine struct {
	c     *circuit.Circuit
	cur   []bool // current committed output value per gate
	last  []float64
	trans []bool
	queue eventHeap
	waves [][]Step
	inc   incState

	// Delayed pin values, flattened: gate g's pins live at
	// pinVals[pinOff[g]:pinOff[g+1]]. gmode and cnt drive the counting
	// evaluator (see the gm* bits); the four arrays are the only state
	// the drain loop touches per event, keeping its working set dense.
	pinVals []bool
	pinOff  []int32
	gmode   []uint8
	cnt     []int16

	// Calendar-queue state for runs under a finite horizon (see arm,
	// schedule and drain): events are appended to the time bucket they
	// fall in, each bucket is sorted once when simulation time reaches
	// it, and e.queue serves only as the small overflow heap for events
	// scheduled into the bucket currently being drained.
	useBins bool
	invBinW float64
	curBin  int32
	bins    [][]event

	// fanRefs[fanIdx[g]:fanIdx[g+1]] lists gate g's fanout pins in the
	// deterministic (fanout gate, pin) order commit schedules them.
	fanRefs []fanRef
	fanIdx  []int32

	// gen counts completed runs; together with the engine pointer it
	// identifies the run that produced a Result (see Result ownership).
	gen uint64
	// res, prep and the settled-value buffers are reused across runs,
	// making steady-state simulation allocation-free.
	res           Result
	prep          PreparedInit
	initBuf       []bool
	finalBuf      []bool
	captureBuf    []bool
	lastChangeBuf []float64
}

// NewEngine returns an Engine for circuit c.
func NewEngine(c *circuit.Circuit) *Engine {
	pinOff := make([]int32, len(c.Gates)+1)
	gmode := make([]uint8, len(c.Gates))
	nFan := 0
	for i := range c.Gates {
		pinOff[i] = int32(nFan)
		gmode[i] = gateMode(c.Gates[i].Type)
		nFan += len(c.Gates[i].Fanin)
	}
	pinOff[len(c.Gates)] = int32(nFan)
	e := &Engine{
		c:             c,
		cur:           make([]bool, len(c.Gates)),
		pinVals:       make([]bool, nFan),
		pinOff:        pinOff,
		gmode:         gmode,
		cnt:           make([]int16, len(c.Gates)),
		last:          make([]float64, len(c.Gates)),
		trans:         make([]bool, len(c.Gates)),
		waves:         make([][]Step, len(c.Gates)),
		fanRefs:       make([]fanRef, 0, nFan),
		fanIdx:        make([]int32, len(c.Gates)+1),
		captureBuf:    make([]bool, len(c.Outputs)),
		lastChangeBuf: make([]float64, len(c.Outputs)),
	}
	// Flatten fanout pin lists in exactly the order commit used to
	// discover them (fanout gate order, then pin order), so event seq
	// assignment — and therefore tie-break order — is unchanged.
	for gi := range c.Gates {
		e.fanIdx[gi] = int32(len(e.fanRefs))
		for _, ho := range c.Gates[gi].Fanout {
			h := &c.Gates[ho]
			for k, fi := range h.Fanin {
				if fi != circuit.GateID(gi) {
					continue
				}
				e.fanRefs = append(e.fanRefs, fanRef{g: ho, pin: int32(k), arc: h.InArcs[k]})
			}
		}
	}
	e.fanIdx[len(c.Gates)] = int32(len(e.fanRefs))
	return e
}

// arcDelay resolves an arc's effective delay under the defect overlay.
func arcDelay(delays []float64, opts *Options, a circuit.ArcID) float64 {
	d := delays[a]
	if a == opts.DefectArc {
		d += opts.DefectExtra
	}
	return d
}

// PreparedInit is the flattened engine reset state for one settled init
// vector: the pin values and evaluator counters of the V1 settled
// state. Loops that sweep many delay instances over a fixed pattern
// prepare it once and reset in a few memmoves instead of a per-gate
// scan. A PreparedInit built by PrepareInit is immutable and safe to
// share across engines and goroutines; init must not be mutated while
// any PreparedInit built from it is in use.
type PreparedInit struct {
	init    []bool
	pinVals []bool
	cnt     []int16
}

// PrepareInit builds the PreparedInit of one settled gate-value vector
// (init must equal logicsim.Eval of the vector driving it).
func PrepareInit(c *circuit.Circuit, init []bool) *PreparedInit {
	p := new(PreparedInit)
	p.fill(c, init)
	return p
}

// fill computes p for init, reusing p's buffers.
func (p *PreparedInit) fill(c *circuit.Circuit, init []bool) {
	p.init = init
	p.pinVals = p.pinVals[:0]
	p.cnt = p.cnt[:0]
	for gi := range c.Gates {
		cv := gateMode(c.Gates[gi].Type)&gmCV != 0
		n := int16(0)
		for _, fi := range c.Gates[gi].Fanin {
			v := init[fi]
			p.pinVals = append(p.pinVals, v)
			if v == cv {
				n++
			}
		}
		p.cnt = append(p.cnt, n)
	}
}

// resetPrepared restores committed values, pin values and evaluator
// counters to the V1 settled state in p: three copies (the zeroing
// loops below compile to memclr).
func (e *Engine) resetPrepared(p *PreparedInit, record bool) {
	copy(e.cur, p.init)
	copy(e.pinVals, p.pinVals)
	copy(e.cnt, p.cnt)
	for i := range e.last {
		e.last[i] = 0
	}
	for i := range e.trans {
		e.trans[i] = false
	}
	if record {
		for gi := range e.waves {
			e.waves[gi] = e.waves[gi][:0]
		}
	}
	e.queue = e.queue[:0]
	e.inc.baseSrc = nil // a full reset invalidates any loaded baseline
}

// nBins is the calendar-queue bucket count: enough that a bucket holds
// a few hundred events on circuits where full runs queue thousands,
// small enough that empty-bucket sweeps are free.
const nBins = 64

// arm prepares the event store for a run capturing at horizon: the
// calendar queue under a finite horizon, the heap alone otherwise.
// curBin starts before bucket 0, so every scheduled event — launch
// transitions and incremental seeds included — lands in a bucket and
// is sorted on entry.
func (e *Engine) arm(horizon float64) {
	if e.useBins = horizon > 0 && !math.IsInf(horizon, 1); e.useBins {
		if e.bins == nil {
			e.bins = make([][]event, nBins)
		}
		e.invBinW = float64(nBins) / horizon
		e.curBin = -1
	}
}

// schedule queues one pin arrival. Under a finite horizon it is an
// O(1) append to the event's time bucket; an arrival into the bucket
// being drained (time is monotone, so never an earlier one) goes to the
// overflow heap, as does every event under an infinite horizon.
//
//ddd:hot
func (e *Engine) schedule(ev event) {
	if e.useBins {
		b := int32(ev.t * e.invBinW)
		if b >= nBins {
			b = nBins - 1
		}
		if b > e.curBin {
			e.bins[b] = append(e.bins[b], ev)
			return
		}
	}
	e.queue.push(ev)
}

// commit records an output change of gate g at time t and fans the new
// value out as future pin arrivals, via the precomputed fanout pin
// list. Arrivals past the horizon are dropped at schedule time: the
// drain would discard them unprocessed (delays are strictly positive,
// so a late event cannot spawn an on-time one), and skipping them only
// renumbers seq while preserving the relative order of surviving
// events — tie-breaks, and therefore results, are unchanged. With a
// non-nil cone, propagation is restricted to cone members.
//
//ddd:hot
func (e *Engine) commit(t float64, g circuit.GateID, v bool, delays []float64, opts *Options, seq *int32, cone circuit.GateSet) {
	e.cur[g] = v
	e.last[g] = t
	e.trans[g] = true
	if opts.RecordWaveforms {
		e.waves[g] = append(e.waves[g], Step{T: t, V: v})
	}
	for _, fr := range e.fanRefs[e.fanIdx[g]:e.fanIdx[g+1]] {
		if cone != nil && !cone.Has(fr.g) {
			continue
		}
		te := t + arcDelay(delays, opts, fr.arc)
		if te > opts.Horizon {
			continue
		}
		e.schedule(event{t: te, seq: *seq, g: fr.g, pin: fr.pin, v: v})
		*seq++
	}
}

// applyPin folds one accepted pin arrival into the counting evaluator
// and reports the gate's new output value. Callers must have verified
// the pin value actually changes.
//
//ddd:hot
func (e *Engine) applyPin(g circuit.GateID, v bool) bool {
	md := e.gmode[g]
	n := e.cnt[g]
	if v == (md&gmCV != 0) {
		n++
	} else {
		n--
	}
	e.cnt[g] = n
	if md&gmParity != 0 {
		return (n&1 == 1) != (md&gmInv != 0)
	}
	return (n == 0) != (md&gmInv != 0)
}

// drain processes every scheduled event in (t, seq) order. It walks
// the calendar buckets in time order, sorting each once on entry and
// merging it with the overflow heap (the heap is empty between
// buckets); with an infinite horizon it is one pass over the heap
// alone. commit never schedules past the horizon, so every event is on
// time. A non-nil cone marks an incremental run: propagation stays in
// the cone and every touched pin and gate goes to the undo log.
//
//ddd:hot
func (e *Engine) drain(delays []float64, opts *Options, seq *int32, cone circuit.GateSet) {
	nb := 1
	if e.useBins {
		nb = nBins
	}
	for b := 0; b < nb; b++ {
		var bin []event
		if e.useBins {
			e.curBin = int32(b)
			bin = e.bins[b]
			sortEvents(bin)
		}
		for si := 0; ; {
			var ev event
			if si < len(bin) && (len(e.queue) == 0 || !lessEv(&e.queue[0], &bin[si])) {
				ev = bin[si]
				si++
			} else if len(e.queue) > 0 {
				ev = e.queue.pop()
			} else {
				break
			}
			pi := e.pinOff[ev.g] + ev.pin
			if e.pinVals[pi] == ev.v {
				continue
			}
			e.pinVals[pi] = ev.v
			if cone != nil {
				e.inc.dirtyP = append(e.inc.dirtyP, pinRef{g: ev.g, pin: ev.pin})
			}
			newOut := e.applyPin(ev.g, ev.v)
			if newOut == e.cur[ev.g] {
				continue
			}
			if cone != nil && !e.trans[ev.g] {
				e.inc.dirtyG = append(e.inc.dirtyG, ev.g)
			}
			e.commit(ev.t, ev.g, newOut, delays, opts, seq, cone)
		}
		if e.useBins {
			e.bins[b] = bin[:0]
		}
	}
}

// Run simulates pattern pair p on the instance with the given per-arc
// delays. The returned Result aliases Engine scratch except where
// documented; it is valid until the next run of this engine.
func (e *Engine) Run(delays []float64, p logicsim.PatternPair, opts Options) *Result {
	e.initBuf = logicsim.EvalInto(e.initBuf, e.c, p.V1)
	e.finalBuf = logicsim.EvalInto(e.finalBuf, e.c, p.V2)
	e.prep.fill(e.c, e.initBuf)
	return e.RunPrepared(delays, p, opts, &e.prep, e.finalBuf)
}

// RunPrepared is Run with the settled states supplied by the caller:
// prep is the PreparedInit of the V1 settled state and final the V2
// settled state (logicsim.Eval of p.V2). Both depend only on the
// pattern, not on the instance delays, so loops that sweep many
// instances over a fixed pattern hoist the logic evaluations and the
// reset scan out of the per-instance path. Result ownership matches
// Run.
func (e *Engine) RunPrepared(delays []float64, p logicsim.PatternPair, opts Options, prep *PreparedInit, final []bool) *Result {
	e.resetPrepared(prep, opts.RecordWaveforms)
	e.arm(opts.Horizon)
	var seq int32
	// Launch: inputs that differ between the vectors switch at t = 0.
	for i, g := range e.c.Inputs {
		if p.V1[i] != p.V2[i] {
			e.commit(0, g, p.V2[i], delays, &opts, &seq, nil)
		}
	}
	e.drain(delays, &opts, &seq, nil)
	res := e.buildResult(prep.init, final, opts, nil, nil)
	res.prep = prep
	return res
}

// buildResult assembles the engine-owned Result; in incremental mode
// (cone != nil) non-cone outputs are taken from the baseline.
func (e *Engine) buildResult(init, final []bool, opts Options, cone circuit.GateSet, base *Result) *Result {
	c := e.c
	e.gen++
	res := &e.res
	*res = Result{
		Capture:      e.captureBuf,
		LastChange:   e.lastChangeBuf,
		Transitioned: e.trans,
		Init:         init,
		Final:        final,
		src:          e,
		gen:          e.gen,
	}
	for i, o := range c.Outputs {
		if cone == nil || cone.Has(o) {
			res.Capture[i] = e.cur[o]
			res.LastChange[i] = e.last[o]
		} else {
			res.Capture[i] = base.Capture[i]
			res.LastChange[i] = base.LastChange[i]
		}
	}
	if opts.RecordWaveforms {
		res.Waveforms = e.waves
	}
	return res
}

// Simulate is the convenience one-shot form of Engine.Run.
func Simulate(c *circuit.Circuit, delays []float64, p logicsim.PatternPair, opts Options) *Result {
	return NewEngine(c).Run(delays, p, opts)
}

// Quiescent returns Options that simulate to quiescence (infinite
// horizon) with no defect.
func Quiescent() Options {
	return Options{Horizon: math.Inf(1), DefectArc: NoDefect}
}

// AtClock returns Options that capture at clk with no defect.
func AtClock(clk float64) Options {
	return Options{Horizon: clk, DefectArc: NoDefect}
}
