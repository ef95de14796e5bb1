package tsim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// pinRef identifies one input pin for dirty-state tracking.
type pinRef struct {
	g   circuit.GateID
	pin int32
}

// incState augments an Engine with the bookkeeping for repeated
// incremental runs against one baseline: instead of re-initializing
// O(|gates|) state per call, the engine records what the previous run
// touched and undoes exactly that.
type incState struct {
	// baseSrc/baseGen identify the baseline run currently loaded (the
	// engine that produced it and its run generation).
	baseSrc *Engine
	baseGen uint64
	dirtyG  []circuit.GateID
	dirtyP  []pinRef
}

// boundarySeed is one cone input pin: pin (g, pin) of a cone gate whose
// driver lies outside the cone, together with the arc connecting them.
type boundarySeed struct {
	driver circuit.GateID
	g      circuit.GateID
	pin    int32
	arc    circuit.ArcID
}

// Cone is a defect fan-out cone preprocessed for repeated incremental
// runs: the member set plus the flattened list of boundary pins that
// receive baseline waveforms. Building it costs one O(|gates|) scan;
// dictionary construction reuses one Cone per suspect across every
// (sample, pattern) re-simulation instead of re-scanning the gate set
// each call. A Cone is immutable after PrepareCone and safe to share
// across engines and goroutines.
type Cone struct {
	// Set holds the cone members (typically circuit.ArcFanoutGates of
	// the defect arc).
	Set circuit.GateSet

	boundary []boundarySeed
}

// PrepareCone flattens the boundary pin list of a cone gate set in
// (gate, pin) order — the order RunIncremental assigns seed event seq
// values in, and therefore its tie-break order.
func PrepareCone(c *circuit.Circuit, set circuit.GateSet) *Cone {
	pc := &Cone{Set: set}
	for gi := range set {
		if !set[gi] {
			continue
		}
		g := &c.Gates[gi]
		for k, fi := range g.Fanin {
			if set.Has(fi) {
				continue
			}
			pc.boundary = append(pc.boundary, boundarySeed{
				driver: fi, g: circuit.GateID(gi), pin: int32(k), arc: g.InArcs[k],
			})
		}
	}
	return pc
}

// RunIncremental re-simulates only the fan-out cone of a defect arc,
// replaying the recorded waveforms of cone-boundary drivers from a
// baseline run. It produces the same captures as a full Run with the
// defect overlay whenever:
//
//   - base was produced by Run or RunPrepared on the same delays,
//     pattern and horizon with RecordWaveforms set, and
//   - cone.Set is (a superset of) the transitive fan-out of
//     defectArc.To (circuit.ArcFanoutGates).
//
// The defect can only change the response of gates in that cone — the
// delayed arc feeds defectArc.To — so everything outside the cone
// behaves exactly as in the baseline and is served from it.
//
// Seed events — the baseline waveforms of boundary drivers shifted by
// the (possibly defective) arc delay — take seq values 0..n-1 in
// boundary order and go through the same event store as derived
// events. Repeated calls against the same base reuse engine state with
// an undo log, so the per-call cost scales with cone activity rather
// than circuit size. Callers that sweep many instances over the same
// cone PrepareCone once.
func (e *Engine) RunIncremental(delays []float64, base *Result, cone *Cone, defectArc circuit.ArcID, extra, horizon float64) *Result {
	if base.Waveforms == nil {
		panic("tsim: RunIncremental requires a baseline with recorded waveforms")
	}
	opts := Options{Horizon: horizon, DefectArc: defectArc, DefectExtra: extra}
	e.prepareIncremental(base)
	e.arm(horizon)

	var seq int32
	for i := range cone.boundary {
		bs := &cone.boundary[i]
		d := arcDelay(delays, &opts, bs.arc)
		for _, st := range base.Waveforms[bs.driver] {
			t := st.T + d
			if t > horizon {
				break
			}
			e.schedule(event{t: t, seq: seq, g: bs.g, pin: bs.pin, v: st.V})
			seq++
		}
	}
	e.drain(delays, &opts, &seq, cone.Set)
	return e.buildResult(base.Init, base.Final, opts, cone.Set, base)
}

// prepareIncremental restores engine scratch to the baseline init
// state — via the undo log when the same baseline run (identified by
// its producing engine and generation, since baseline buffers are
// reused across runs) is already loaded, or with a full reset on
// first use.
func (e *Engine) prepareIncremental(base *Result) {
	init := base.Init
	if e.inc.baseSrc != nil && e.inc.baseSrc == base.src && e.inc.baseGen == base.gen {
		for _, g := range e.inc.dirtyG {
			e.cur[g] = init[g]
			e.last[g] = 0
			e.trans[g] = false
		}
		for _, p := range e.inc.dirtyP {
			pi := e.pinOff[p.g] + p.pin
			v0 := init[e.c.Gates[p.g].Fanin[p.pin]]
			// A pin can appear several times in the log (toggled
			// repeatedly); restore — and fix the evaluator counter —
			// only when its value actually differs from the baseline.
			if e.pinVals[pi] != v0 {
				e.pinVals[pi] = v0
				if v0 == (e.gmode[p.g]&gmCV != 0) {
					e.cnt[p.g]++
				} else {
					e.cnt[p.g]--
				}
			}
		}
		e.inc.dirtyG = e.inc.dirtyG[:0]
		e.inc.dirtyP = e.inc.dirtyP[:0]
		e.queue = e.queue[:0]
		return
	}
	e.resetPrepared(base.prep, false)
	e.inc.baseSrc = base.src
	e.inc.baseGen = base.gen
	e.inc.dirtyG = e.inc.dirtyG[:0]
	e.inc.dirtyP = e.inc.dirtyP[:0]
}

// CheckPair validates that a pattern pair matches the circuit's input
// width, returning a descriptive error instead of the panic that the
// simulators would raise.
func CheckPair(c *circuit.Circuit, p logicsim.PatternPair) error {
	if len(p.V1) != len(c.Inputs) || len(p.V2) != len(c.Inputs) {
		return fmt.Errorf("tsim: pattern width %d/%d does not match %d inputs",
			len(p.V1), len(p.V2), len(c.Inputs))
	}
	return nil
}
