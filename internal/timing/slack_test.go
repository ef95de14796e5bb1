package timing

import (
	"math"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/synth"
)

func TestSlacksChain(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(n2)\nn1 = NOT(a)\nn2 = NOT(n1)\n"
	c, err := benchfmt.ParseString(src, "chain", false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	in := m.NominalInstance()
	arr := m.ArrivalTimes(in)
	clk := arr[c.Outputs[0]] + 0.5 // half a unit of guardband
	slacks := m.Slacks(in, clk)
	// Every arc of a pure chain carries the same slack: the guardband.
	for i, s := range slacks {
		if math.Abs(s-0.5) > 1e-9 {
			t.Errorf("arc %d slack = %v, want 0.5", i, s)
		}
	}
}

func TestSlacksDiamond(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(o)\nf = BUF(a)\ns1 = NOT(a)\ns2 = NOT(s1)\no = AND(f, s2)\n"
	c, err := benchfmt.ParseString(src, "diamond", false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	in := m.NominalInstance()
	arr := m.ArrivalTimes(in)
	clk := arr[c.Outputs[0]]
	slacks := m.Slacks(in, clk)
	o, _ := c.GateByName("o")
	slow := o.InArcs[1] // via the two-NOT branch
	fast := o.InArcs[0] // via the buffer
	if math.Abs(slacks[slow]) > 1e-9 {
		t.Errorf("critical arc slack = %v, want 0", slacks[slow])
	}
	if slacks[fast] <= 0 {
		t.Errorf("fast-branch slack = %v, want positive", slacks[fast])
	}
	// Slack consistency: adding exactly the slack as a defect makes the
	// arc critical (arrival hits clk).
	d := in.WithDefect(fast, slacks[fast])
	arr2 := m.ArrivalTimes(d)
	if math.Abs(arr2[c.Outputs[0]]-clk) > 1e-9 {
		t.Errorf("slack-sized defect should land exactly on clk: %v vs %v", arr2[c.Outputs[0]], clk)
	}
}

func TestSlacksUnobservableArc(t *testing.T) {
	// A dangling gate's arcs get the sentinel slack.
	srcBench := "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\ndead = OR(a, b)\n"
	c, err := benchfmt.ParseString(srcBench, "dead", false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	in := m.NominalInstance()
	clk := 10.0
	slacks := m.Slacks(in, clk)
	dead, _ := c.GateByName("dead")
	for _, a := range dead.InArcs {
		if slacks[a] != clk {
			t.Errorf("unobservable arc slack = %v, want sentinel %v", slacks[a], clk)
		}
	}
}

func TestMinSlackArcs(t *testing.T) {
	slacks := []float64{3, 1, 2, 0.5, 5}
	top := MinSlackArcs(slacks, 3)
	if len(top) != 3 || top[0] != 3 || top[1] != 1 || top[2] != 2 {
		t.Errorf("MinSlackArcs = %v", top)
	}
	if got := MinSlackArcs(slacks, 99); len(got) != len(slacks) {
		t.Errorf("overlong k not clamped")
	}
}

func TestSlackMatchesCriticality(t *testing.T) {
	// The arc with minimum slack on the nominal instance should be
	// among the most critical arcs statistically.
	c, err := synth.GenerateNamed("mini", 4)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	in := m.NominalInstance()
	arr := m.ArrivalTimes(in)
	worst := 0.0
	for _, o := range c.Outputs {
		if arr[o] > worst {
			worst = arr[o]
		}
	}
	slacks := m.Slacks(in, worst)
	minArc := MinSlackArcs(slacks, 1)[0]
	cr := mustCriticality(t, m, 400, 7, 0)
	if cr.Prob[minArc] < 0.2 {
		t.Errorf("min-slack arc %d has low statistical criticality %v", minArc, cr.Prob[minArc])
	}
}
