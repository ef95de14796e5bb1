package circuit

import (
	"strings"
	"testing"
)

// buildC17 constructs the classic ISCAS'85 c17 netlist:
//
//	n10 = NAND(i1, i3); n11 = NAND(i3, i4)
//	n16 = NAND(i2, n11); n19 = NAND(n11, i5)
//	o22 = NAND(n10, n16); o23 = NAND(n16, n19)
func buildC17(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("c17")
	for _, in := range []string{"i1", "i2", "i3", "i4", "i5"} {
		if err := b.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	gates := []struct {
		name string
		fin  []string
	}{
		{"n10", []string{"i1", "i3"}},
		{"n11", []string{"i3", "i4"}},
		{"n16", []string{"i2", "n11"}},
		{"n19", []string{"n11", "i5"}},
		{"o22", []string{"n10", "n16"}},
		{"o23", []string{"n16", "n19"}},
	}
	for _, g := range gates {
		if err := b.AddGate(g.name, Nand, g.fin...); err != nil {
			t.Fatal(err)
		}
	}
	b.MarkOutput("o22")
	b.MarkOutput("o23")
	c, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildC17(t *testing.T) {
	c := buildC17(t)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Inputs != 5 || st.Outputs != 2 {
		t.Errorf("IO = %d/%d", st.Inputs, st.Outputs)
	}
	if st.Logic != 6 {
		t.Errorf("logic gates = %d, want 6", st.Logic)
	}
	// 6 NAND * 2 pins + 2 output ports * 1 pin = 14 arcs.
	if st.Arcs != 14 {
		t.Errorf("arcs = %d, want 14", st.Arcs)
	}
	// depth: i -> n11 -> n16 -> o22 -> port = 4
	if st.Depth != 4 {
		t.Errorf("depth = %d, want 4", st.Depth)
	}
}

func TestGateByName(t *testing.T) {
	c := buildC17(t)
	g, ok := c.GateByName("n16")
	if !ok || g.Type != Nand || len(g.Fanin) != 2 {
		t.Fatalf("GateByName(n16) = %+v, %v", g, ok)
	}
	if _, ok := c.GateByName("bogus"); ok {
		t.Errorf("bogus name resolved")
	}
	// Output port gates get a $out suffix.
	if _, ok := c.GateByName("o22$out"); !ok {
		t.Errorf("output port gate missing")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	if err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInput("a"); err == nil {
		t.Errorf("duplicate input accepted")
	}
	if err := b.AddGate("", And, "a", "a"); err == nil {
		t.Errorf("empty name accepted")
	}
	if err := b.AddGate("g1", And, "a"); err == nil {
		t.Errorf("1-input AND accepted")
	}
	if err := b.AddGate("g2", Not, "a", "a"); err == nil {
		t.Errorf("2-input NOT accepted")
	}
	if err := b.AddGate("g3", And, "a", "zzz"); err != nil {
		t.Fatal(err)
	}
	b.MarkOutput("g3")
	if _, err := b.Build(false); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("unresolved reference not caught: %v", err)
	}
}

func TestUndeclaredOutput(t *testing.T) {
	b := NewBuilder("bad")
	_ = b.AddInput("a")
	b.MarkOutput("nope")
	if _, err := b.Build(false); err == nil {
		t.Errorf("undeclared output accepted")
	}
}

func TestBuilderRejectsEmptyInterface(t *testing.T) {
	// No inputs.
	b := NewBuilder("noin")
	_ = b.AddGate("c1", Const1)
	b.MarkOutput("c1")
	if _, err := b.Build(false); err == nil {
		t.Errorf("inputless circuit accepted")
	}
	// No outputs.
	b2 := NewBuilder("noout")
	_ = b2.AddInput("a")
	if _, err := b2.Build(false); err == nil {
		t.Errorf("outputless circuit accepted")
	}
}

func TestCycleDetection(t *testing.T) {
	b := NewBuilder("loop")
	_ = b.AddInput("a")
	_ = b.AddGate("x", And, "a", "y")
	_ = b.AddGate("y", And, "a", "x")
	b.MarkOutput("x")
	if _, err := b.Build(false); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestScanConversion(t *testing.T) {
	b := NewBuilder("seq")
	_ = b.AddInput("a")
	_ = b.AddGate("q", DFF, "g")
	_ = b.AddGate("g", And, "a", "q")
	b.MarkOutput("g")
	c, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	// After scan conversion: inputs a + q (pseudo), outputs g (PO) + g (PPO).
	if len(c.Inputs) != 2 {
		t.Errorf("inputs = %d, want 2 (PI + PPI)", len(c.Inputs))
	}
	if len(c.Outputs) != 2 {
		t.Errorf("outputs = %d, want 2 (PO + PPO)", len(c.Outputs))
	}
	q, ok := c.GateByName("q")
	if !ok || q.Type != Input {
		t.Errorf("DFF output not converted to pseudo-PI: %+v", q)
	}
}

func TestUnscannedDFFCycleFails(t *testing.T) {
	b := NewBuilder("seq")
	_ = b.AddInput("a")
	_ = b.AddGate("q", DFF, "g")
	_ = b.AddGate("g", And, "a", "q")
	b.MarkOutput("g")
	if _, err := b.Build(false); err == nil {
		t.Errorf("sequential loop without scan conversion should fail")
	}
}

func TestTopoOrderAndLevels(t *testing.T) {
	c := buildC17(t)
	pos := make(map[GateID]int)
	for p, g := range c.Order {
		pos[g] = p
	}
	for i := range c.Gates {
		for _, fi := range c.Gates[i].Fanin {
			if pos[fi] >= pos[GateID(i)] {
				t.Fatalf("order violation at %s", c.Gates[i].Name)
			}
		}
		lvl := 0
		for _, fi := range c.Gates[i].Fanin {
			if c.Levels[fi]+1 > lvl {
				lvl = c.Levels[fi] + 1
			}
		}
		if c.Levels[i] != lvl {
			t.Fatalf("level mismatch at %s: %d vs %d", c.Gates[i].Name, c.Levels[i], lvl)
		}
	}
}

func TestCones(t *testing.T) {
	c := buildC17(t)
	n16, _ := c.GateByName("n16")
	fin := c.FaninCone(n16.ID)
	for _, name := range []string{"n16", "n11", "i2", "i3", "i4"} {
		g, _ := c.GateByName(name)
		if !fin.Has(g.ID) {
			t.Errorf("fanin cone missing %s", name)
		}
	}
	for _, name := range []string{"i1", "i5", "n10", "o22"} {
		g, _ := c.GateByName(name)
		if fin.Has(g.ID) {
			t.Errorf("fanin cone wrongly contains %s", name)
		}
	}
	fo := c.FanoutCone(n16.ID)
	for _, name := range []string{"n16", "o22", "o23", "o22$out", "o23$out"} {
		g, _ := c.GateByName(name)
		if !fo.Has(g.ID) {
			t.Errorf("fanout cone missing %s", name)
		}
	}
	if got := fo.Count(); got != 5 {
		t.Errorf("fanout cone size = %d, want 5", got)
	}
}

func TestArcFanoutGates(t *testing.T) {
	c := buildC17(t)
	n19, _ := c.GateByName("n19")
	a := n19.InArcs[1] // i5 -> n19
	fo := c.ArcFanoutGates(a)
	// n19, o23, o23$out
	if fo.Count() != 3 {
		t.Errorf("arc fanout count = %d, want 3", fo.Count())
	}
}

func TestGateSetArcSetOps(t *testing.T) {
	c := buildC17(t)
	gs := c.NewGateSet()
	if gs.Count() != 0 {
		t.Errorf("fresh set non-empty")
	}
	gs.Add(3)
	gs.Add(3)
	gs.Add(5)
	if !gs.Has(3) || gs.Has(4) || gs.Count() != 2 {
		t.Errorf("gate set ops wrong")
	}
	as := c.NewArcSet()
	as.Add(1)
	as.Add(7)
	ids := as.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 7 {
		t.Errorf("IDs = %v", ids)
	}
	if as.Count() != 2 || !as.Has(7) || as.Has(0) {
		t.Errorf("arc set ops wrong")
	}
}

func TestOutputIndex(t *testing.T) {
	c := buildC17(t)
	if i := c.OutputIndex(c.Outputs[1]); i != 1 {
		t.Errorf("OutputIndex = %d, want 1", i)
	}
	if i := c.OutputIndex(c.Inputs[0]); i != -1 {
		t.Errorf("OutputIndex of input = %d, want -1", i)
	}
}
