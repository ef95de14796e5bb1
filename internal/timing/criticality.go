package timing

import (
	"context"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/par"
)

// Statistical criticality (the quantity behind the paper's companion
// path-selection work [16]): the probability, over manufacturing
// variation, that an arc lies on the circuit's critical (longest)
// path. Deterministic STA reports one critical path; under variation
// the critical path wanders, and arcs are critical with probabilities
// that this analysis estimates by Monte Carlo.

// Criticality holds per-arc critical-path membership probabilities.
type Criticality struct {
	Prob []float64 // indexed by ArcID
}

// MonteCarloCriticalityCtx samples nSamples instances; on each, it
// computes arrival times, walks the critical path backward from the
// latest output, and counts each traversed arc. Workers bound the
// parallelism (0 = GOMAXPROCS, see par.Workers).
//
// nSamples <= 0 returns the zero-value Criticality (every probability
// zero): no samples means no evidence, and an estimate over an empty
// sample set is the empty estimate, never a division by zero.
//
// Cancellation is cooperative: workers check ctx between sample
// blocks and stop early when it is done. A cancelled run returns
// (nil, ctx.Err()) — a partial criticality estimate would be silently
// biased toward the samples that happened to finish, so none is
// returned.
//
// Samples are propagated in blocks on reusable per-worker scratch
// (see kernel.go); per-arc counts accumulate in int64 per worker and
// are summed exactly before the single division by nSamples, so the
// estimate is bit-identical under any worker count or block width.
func (m *Model) MonteCarloCriticalityCtx(ctx context.Context, nSamples int, seed uint64, workers int) (*Criticality, error) {
	if nSamples <= 0 {
		return &Criticality{Prob: make([]float64, len(m.C.Arcs))}, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		critSeconds.Add(time.Since(start).Seconds())
	}()
	critSamples.Add(float64(nSamples))
	block := DefaultBlock
	nBlocks := (nSamples + block - 1) / block
	nWorkers := par.Workers(workers, nBlocks)
	scratches := make([]*Scratch, nWorkers)
	counts := make([][]int64, nWorkers)
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
			counts[w] = make([]int64, len(m.C.Arcs))
		}
		s0 := j * block
		nb := block
		if s0+nb > nSamples {
			nb = nSamples - s0
		}
		arrivalEvals.Add(float64(nb))
		m.sampleBlock(sc, seed, s0, nb)
		m.propagateBlock(sc, nb)
		m.backtraceBlock(sc, nb, counts[w])
	}); err != nil {
		return nil, err
	}
	total := make([]int64, len(m.C.Arcs))
	for _, cnt := range counts {
		for i, v := range cnt {
			total[i] += v
		}
	}
	cr := &Criticality{Prob: make([]float64, len(m.C.Arcs))}
	for i, v := range total {
		cr.Prob[i] = float64(v) / float64(nSamples)
	}
	return cr, nil
}

// Top returns the k most critical arcs, most probable first (ties by
// ascending arc ID).
func (cr *Criticality) Top(k int) []circuit.ArcID {
	type pair struct {
		a circuit.ArcID
		p float64
	}
	ps := make([]pair, 0, len(cr.Prob))
	for i, p := range cr.Prob {
		if p > 0 {
			ps = append(ps, pair{a: circuit.ArcID(i), p: p})
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].p > ps[j].p {
			return true
		}
		if ps[i].p < ps[j].p {
			return false
		}
		return ps[i].a < ps[j].a
	})
	if len(ps) > k {
		ps = ps[:k]
	}
	out := make([]circuit.ArcID, len(ps))
	for i, p := range ps {
		out[i] = p.a
	}
	return out
}
