package timing

import (
	"math"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/synth"
)

func TestCriticalityChainIsCertain(t *testing.T) {
	// A pure chain: every arc is on the critical path of every sample.
	src := "INPUT(a)\nOUTPUT(n2)\nn1 = NOT(a)\nn2 = NOT(n1)\n"
	c, err := benchfmt.ParseString(src, "chain", false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	cr := mustCriticality(t, m, 200, 7, 0)
	for i, p := range cr.Prob {
		if math.Abs(p-1) > 1e-12 {
			t.Errorf("chain arc %d criticality = %v, want 1", i, p)
		}
	}
}

func TestCriticalityDiamondFavorsSlowBranch(t *testing.T) {
	// Long branch (two NOTs) vs short branch (BUF): the long side
	// should be critical almost always.
	src := "INPUT(a)\nOUTPUT(o)\nf = BUF(a)\ns1 = NOT(a)\ns2 = NOT(s1)\no = AND(f, s2)\n"
	c, err := benchfmt.ParseString(src, "diamond", false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	cr := mustCriticality(t, m, 500, 7, 0)
	s2, _ := c.GateByName("s2")
	f, _ := c.GateByName("f")
	o, _ := c.GateByName("o")
	slowArc := o.InArcs[1] // s2 -> o
	fastArc := o.InArcs[0] // f -> o
	if cr.Prob[slowArc] < 0.95 {
		t.Errorf("slow-branch criticality = %v, want ~1", cr.Prob[slowArc])
	}
	if cr.Prob[fastArc] > 0.05 {
		t.Errorf("fast-branch criticality = %v, want ~0", cr.Prob[fastArc])
	}
	// Each sample walks exactly one path: probabilities through the
	// AND's pins sum to 1.
	if s := cr.Prob[slowArc] + cr.Prob[fastArc]; math.Abs(s-1) > 1e-9 {
		t.Errorf("pin criticalities sum to %v", s)
	}
	_, _ = s2, f
}

func TestCriticalityDeterministicAcrossWorkers(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 4)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	a := mustCriticality(t, m, 300, 9, 1)
	b := mustCriticality(t, m, 300, 9, 4)
	for i := range a.Prob {
		if math.Abs(a.Prob[i]-b.Prob[i]) > 1e-12 {
			t.Fatalf("criticality depends on workers at arc %d", i)
		}
	}
}

func TestCriticalityTop(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 4)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	cr := mustCriticality(t, m, 400, 9, 0)
	top := cr.Top(5)
	if len(top) == 0 {
		t.Fatal("no critical arcs")
	}
	for i := 1; i < len(top); i++ {
		if cr.Prob[top[i]] > cr.Prob[top[i-1]]+1e-12 {
			t.Errorf("Top not sorted at %d", i)
		}
	}
	// Every sample contributes one full path; the most critical arc
	// appears in a decent share of them.
	if cr.Prob[top[0]] < 0.05 {
		t.Errorf("top criticality suspiciously low: %v", cr.Prob[top[0]])
	}
}

func TestCriticalityZeroSamples(t *testing.T) {
	// nSamples <= 0 is the documented zero-value early return: every
	// probability zero, no division by zero, no panic.
	src := "INPUT(a)\nOUTPUT(n2)\nn1 = NOT(a)\nn2 = NOT(n1)\n"
	c, err := benchfmt.ParseString(src, "chain", false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	for _, n := range []int{0, -3} {
		cr := mustCriticality(t, m, n, 4, 0)
		if len(cr.Prob) != len(c.Arcs) {
			t.Fatalf("nSamples=%d: len(Prob) = %d, want %d", n, len(cr.Prob), len(c.Arcs))
		}
		for i, p := range cr.Prob {
			if p != 0 {
				t.Errorf("nSamples=%d: arc %d criticality = %v, want 0", n, i, p)
			}
		}
	}
}
