// Package core implements the paper's primary contribution: delay
// defect diagnosis over a statistical timing model. It provides
//
//   - the probabilistic fault dictionary: the critical-probability
//     matrix M_crt of the defect-free model, the per-candidate matrices
//     E_crt under each single-defect hypothesis, and the signature
//     matrices S_crt = E_crt − M_crt (Definitions D.7, E.1), estimated
//     by shared-sample Monte-Carlo dynamic timing simulation;
//   - behavior matrices B observed on failing circuit instances;
//   - the cause-effect suspect pruning of Algorithm E.1 step 1;
//   - the diagnosis error functions: Alg_sim Methods I/II/III and the
//     explicit Euclidean error function of Alg_rev (Sections E, F),
//     plus a pluggable interface for new error functions;
//   - ranked-candidate diagnosis with top-K selection.
package core

import (
	"fmt"
	"math/bits"
	"strings"
)

// Matrix is a dense |O| × |TP| probability matrix (outputs × patterns),
// the shape of M_crt, E_crt and S_crt.
type Matrix struct {
	Rows, Cols int // Rows = |O| outputs, Cols = |TP| patterns
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Sub returns m − o clamped at zero element-wise: the signature
// operation S_crt = max(E_crt − M_crt, 0). With common-random-number
// estimation E ≥ M holds exactly; the clamp guards the general case.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("core: matrix shape mismatch")
	}
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		d := v - o.Data[i]
		if d < 0 {
			d = 0
		}
		out.Data[i] = d
	}
	return out
}

// Scale multiplies every element by f in place and returns m.
func (m *Matrix) Scale(f float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= f
	}
	return m
}

func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.3f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Behavior is the 0-1 failing-behavior matrix B (Equation 3): entry
// (i, j) is true when output i fails pattern j at the cut-off period.
//
// The representation is bit-packed: each output row is a run of
// ⌈Cols/64⌉ uint64 words, pattern j living in bit j%64 of word j/64 —
// the same lane layout logicsim's word-parallel kernels use, so a
// behavior word and a sensitization mask for the same 64-pattern block
// combine with plain bitwise ops (see SuspectArcsTiered). Counting
// reduces to popcounts. Invariant: the padding bits above Cols in each
// row's last word are always zero, so whole-word scans need no tail
// masking. The wire/JSON form (row strings of '0'/'1') is unchanged —
// packing is an in-memory concern only.
type Behavior struct {
	Rows, Cols int
	words      int      // uint64 words per row = ceil(Cols/64)
	bits       []uint64 // row-major, Rows*words
}

// NewBehavior returns an all-pass behavior matrix.
func NewBehavior(rows, cols int) *Behavior {
	b := &Behavior{}
	b.Reset(rows, cols)
	return b
}

// Reset reshapes b to an all-pass rows x cols matrix, reusing the
// backing array when it is large enough. It lets callers on hot
// request paths (ddd-serve) pool Behavior values instead of
// allocating one per request.
func (b *Behavior) Reset(rows, cols int) {
	words := (cols + 63) / 64
	n := rows * words
	b.Rows, b.Cols, b.words = rows, cols, words
	if cap(b.bits) < n {
		b.bits = make([]uint64, n)
		return
	}
	b.bits = b.bits[:n]
	for i := range b.bits {
		b.bits[i] = 0
	}
}

// Clone returns an independent copy of b.
func (b *Behavior) Clone() *Behavior {
	return &Behavior{
		Rows: b.Rows, Cols: b.Cols, words: b.words,
		bits: append([]uint64(nil), b.bits...),
	}
}

func (b *Behavior) check(i, j int) {
	if uint(i) >= uint(b.Rows) || uint(j) >= uint(b.Cols) {
		panic(fmt.Sprintf("core: behavior index (%d, %d) out of %dx%d", i, j, b.Rows, b.Cols))
	}
}

// At returns entry (i, j).
func (b *Behavior) At(i, j int) bool {
	b.check(i, j)
	return b.bits[i*b.words+j>>6]>>(uint(j)&63)&1 != 0
}

// Set assigns entry (i, j).
func (b *Behavior) Set(i, j int, v bool) {
	b.check(i, j)
	bit := uint64(1) << (uint(j) & 63)
	if v {
		b.bits[i*b.words+j>>6] |= bit
	} else {
		b.bits[i*b.words+j>>6] &^= bit
	}
}

// WordsPerRow returns the number of 64-pattern words per output row —
// the stride of the word-level view.
func (b *Behavior) WordsPerRow() int { return b.words }

// Word returns the w-th 64-pattern word of output row i: bit l covers
// pattern 64*w+l. Bits above Cols are zero by invariant.
func (b *Behavior) Word(i, w int) uint64 { return b.bits[i*b.words+w] }

// AnyFailure reports whether at least one entry fails.
func (b *Behavior) AnyFailure() bool {
	for _, w := range b.bits {
		if w != 0 {
			return true
		}
	}
	return false
}

// FailCount returns the number of failing entries.
func (b *Behavior) FailCount() int {
	n := 0
	for _, w := range b.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// FailingPatterns returns the pattern indices with at least one
// failing output.
func (b *Behavior) FailingPatterns() []int {
	var out []int
	for w := 0; w < b.words; w++ {
		var any uint64
		for i := 0; i < b.Rows; i++ {
			any |= b.bits[i*b.words+w]
		}
		for any != 0 {
			out = append(out, w*64+bits.TrailingZeros64(any))
			any &= any - 1
		}
	}
	return out
}

func (b *Behavior) String() string {
	var sb strings.Builder
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			if b.At(i, j) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
