package core

import (
	"math"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 0.5)
	m.Add(0, 1, 0.25)
	if m.At(0, 1) != 0.75 {
		t.Errorf("At = %v", m.At(0, 1))
	}
	if m.At(1, 2) != 0 {
		t.Errorf("zero init violated")
	}
	m.Scale(2)
	if m.At(0, 1) != 1.5 {
		t.Errorf("Scale wrong")
	}
}

func TestMatrixSubClamps(t *testing.T) {
	a := NewMatrix(1, 2)
	b := NewMatrix(1, 2)
	a.Set(0, 0, 0.3)
	b.Set(0, 0, 0.1)
	a.Set(0, 1, 0.1)
	b.Set(0, 1, 0.4)
	s := a.Sub(b)
	if math.Abs(s.At(0, 0)-0.2) > 1e-12 {
		t.Errorf("Sub = %v", s.At(0, 0))
	}
	if s.At(0, 1) != 0 {
		t.Errorf("Sub did not clamp: %v", s.At(0, 1))
	}
	defer func() {
		if recover() == nil {
			t.Errorf("shape mismatch not caught")
		}
	}()
	a.Sub(NewMatrix(2, 2))
}

func TestMatrixMaxAbsDiff(t *testing.T) {
	a := NewMatrix(1, 3)
	b := NewMatrix(1, 3)
	a.Set(0, 1, 0.9)
	b.Set(0, 1, 0.2)
	if d := a.MaxAbsDiff(b); math.Abs(d-0.7) > 1e-12 {
		t.Errorf("MaxAbsDiff = %v", d)
	}
}

func TestBehaviorBasics(t *testing.T) {
	b := NewBehavior(2, 3)
	if b.AnyFailure() {
		t.Errorf("fresh behavior fails")
	}
	b.Set(1, 2, true)
	b.Set(0, 0, true)
	if !b.AnyFailure() || b.FailCount() != 2 {
		t.Errorf("counting wrong")
	}
	fp := b.FailingPatterns()
	if len(fp) != 2 || fp[0] != 0 || fp[1] != 2 {
		t.Errorf("FailingPatterns = %v", fp)
	}
	if b.String() != "100\n001\n" {
		t.Errorf("String = %q", b.String())
	}
}

func TestMatrixString(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 0.125)
	if m.String() == "" {
		t.Errorf("empty string")
	}
}

// MaxAbsDiff returns the largest element-wise |m − o|.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	d := 0.0
	for i := range m.Data {
		v := m.Data[i] - o.Data[i]
		if v < 0 {
			v = -v
		}
		if v > d {
			d = v
		}
	}
	return d
}
