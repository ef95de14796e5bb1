package timing

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/rng"
)

// ArrivalTimes computes topological (latest-transition, i.e. static)
// arrival times for every gate of a fixed-delay instance: inputs launch
// at t = 0 and each gate's arrival is the max over its in-arcs of the
// driver arrival plus the arc delay. The returned slice is indexed by
// GateID.
func (m *Model) ArrivalTimes(in *Instance) []float64 {
	arrivalEvals.Inc()
	arr := make([]float64, len(m.C.Gates))
	for _, gid := range m.C.Order {
		g := &m.C.Gates[gid]
		if len(g.Fanin) == 0 {
			arr[gid] = 0
			continue
		}
		best := 0.0
		for k, fi := range g.Fanin {
			if t := arr[fi] + in.Delays[g.InArcs[k]]; k == 0 || t > best {
				best = t
			}
		}
		arr[gid] = best
	}
	return arr
}

// STAResult holds Monte-Carlo statistical STA output: the empirical
// arrival-time distribution Ar(o_i) per primary output and the circuit
// delay Δ(C) = max_i Ar(o_i) (Section D-1 of the paper).
type STAResult struct {
	Arrivals     []*dist.Empirical // per output, indexed parallel to C.Outputs
	CircuitDelay *dist.Empirical
}

// CriticalProb returns the critical probability P(Δ(C) > clk)
// (Definition D.6).
func (r *STAResult) CriticalProb(clk float64) float64 {
	return r.CircuitDelay.Exceed(clk)
}

// MonteCarloSTACtx estimates the output arrival distributions by
// sampling nSamples circuit instances (deterministically derived from
// seed) and running static timing on each, fanning out across workers
// goroutines (0 = GOMAXPROCS, see par.Workers). nSamples < 1 is an
// error: an empirical distribution over no samples has no quantiles.
//
// Cancellation is cooperative: workers stop claiming sample blocks
// once ctx is done (the fan-out checks between blocks, so a cancel
// lands within one block of static timing per worker). A cancelled
// run returns (nil, ctx.Err()) — the partially filled per-output
// arrays would bias every quantile toward whichever samples completed,
// so no partial distribution is built.
func (m *Model) MonteCarloSTACtx(ctx context.Context, nSamples int, seed uint64, workers int) (*STAResult, error) {
	return m.monteCarloSTABlocked(ctx, nSamples, seed, workers, DefaultBlock)
}

// monteCarloSTABlocked is the blocked implementation behind
// MonteCarloSTACtx, with an explicit block width so equivalence tests
// and the fuzz target can vary it. Results are bit-identical for every
// block >= 1 (see the kernel contract in kernel.go).
func (m *Model) monteCarloSTABlocked(ctx context.Context, nSamples int, seed uint64, workers, block int) (*STAResult, error) {
	if nSamples < 1 {
		return nil, errNoSamples(nSamples)
	}
	start := time.Now()
	defer func() {
		staSeconds.Add(time.Since(start).Seconds())
	}()
	staSamples.Add(float64(nSamples))
	nOut := len(m.C.Outputs)
	perOut := make([][]float64, nOut)
	for i := range perOut {
		perOut[i] = make([]float64, nSamples)
	}
	delays := make([]float64, nSamples)
	if block <= 0 {
		block = DefaultBlock
	}
	nBlocks := (nSamples + block - 1) / block
	scratches := make([]*Scratch, par.Workers(workers, nBlocks))
	defer func() {
		for _, sc := range scratches {
			if sc != nil {
				m.releaseScratch(sc)
			}
		}
	}()
	if _, err := par.ForWorkerCtx(ctx, nBlocks, workers, func(w, j int) {
		sc := scratches[w]
		if sc == nil {
			sc = m.acquireScratch(block)
			scratches[w] = sc
		}
		s0 := j * block
		nb := block
		if s0+nb > nSamples {
			nb = nSamples - s0
		}
		arrivalEvals.Add(float64(nb))
		m.sampleBlock(sc, seed, s0, nb)
		m.propagateBlock(sc, nb)
		B := sc.block
		for b := 0; b < nb; b++ {
			worst := 0.0
			for i, o := range m.C.Outputs {
				t := sc.arr[int(o)*B+b]
				perOut[i][s0+b] = t
				if t > worst {
					worst = t
				}
			}
			delays[s0+b] = worst
		}
	}); err != nil {
		return nil, err
	}
	res := &STAResult{
		Arrivals:     make([]*dist.Empirical, nOut),
		CircuitDelay: dist.NewEmpirical(delays),
	}
	for i := range perOut {
		res.Arrivals[i] = dist.NewEmpirical(perOut[i])
	}
	return res, nil
}

// errNoSamples reports a Monte-Carlo request for fewer than one
// sample.
func errNoSamples(nSamples int) error {
	return fmt.Errorf("timing: nSamples = %d, want >= 1", nSamples)
}

// TimingLengthCtx estimates the statistical timing length TL(p) of a
// path by Monte Carlo over nSamples >= 1 instances, with cooperative
// cancellation and an explicit worker bound (0 = GOMAXPROCS, see
// par.Workers). Instances are sampled in blocks on reusable per-worker
// scratch; each sample draws the full instance (the same
// rng.NewDerived(seed, s) stream as every other Monte-Carlo entry
// point) and sums the path's arc delays in path order, so results are
// bit-identical to summing the arcs of SampleInstanceSeeded(seed, s)
// one sample at a time. A cancelled run returns (nil, ctx.Err()).
func (m *Model) TimingLengthCtx(ctx context.Context, arcs []circuit.ArcID, nSamples int, seed uint64, workers int) (*dist.Empirical, error) {
	if nSamples < 1 {
		return nil, errNoSamples(nSamples)
	}
	tlSamples.Add(float64(nSamples))
	xs := make([]float64, nSamples)
	block := DefaultBlock
	nBlocks := (nSamples + block - 1) / block
	scratches := make([]*Scratch, par.Workers(workers, nBlocks))
	defer func() {
		for _, sc := range scratches {
			if sc != nil {
				m.releaseScratch(sc)
			}
		}
	}()
	if _, err := par.ForWorkerCtx(ctx, nBlocks, workers, func(w, j int) {
		sc := scratches[w]
		if sc == nil {
			sc = m.acquireScratch(block)
			scratches[w] = sc
		}
		s0 := j * block
		nb := block
		if s0+nb > nSamples {
			nb = nSamples - s0
		}
		m.sampleBlock(sc, seed, s0, nb)
		B := sc.block
		for b := 0; b < nb; b++ {
			t := 0.0
			for _, a := range arcs {
				t += sc.delays[int(a)*B+b]
			}
			xs[s0+b] = t
		}
	}); err != nil {
		return nil, err
	}
	return dist.NewEmpirical(xs), nil
}

// quantileSeed is the sub-stream index used by helpers that need an
// auxiliary instance stream distinct from the main MC stream.
const quantileSeed = 0x51a9

// SuggestClockCtx returns the q-quantile of the Monte-Carlo
// circuit-delay distribution over nSamples >= 1 instances — the
// natural way to pick the cut-off period clk for an experiment (e.g.
// q = 0.95 puts 5 % of defect-free dies over clk). ctx is threaded into
// the underlying Monte-Carlo STA run (which checks it between sample
// blocks); a cancelled run returns (0, ctx.Err()).
func (m *Model) SuggestClockCtx(ctx context.Context, q float64, nSamples int, seed uint64, workers int) (float64, error) {
	res, err := m.MonteCarloSTACtx(ctx, nSamples, rng.Derive(seed, quantileSeed), workers)
	if err != nil {
		return 0, err
	}
	return res.CircuitDelay.Quantile(q), nil
}
