package circuit

import (
	"fmt"
	"sort"
)

// GateID indexes a gate within a Circuit.
type GateID int32

// ArcID indexes a pin-to-pin arc within a Circuit. Arcs are the
// elements of the paper's edge set E: each carries one delay random
// variable in the circuit model, one fixed delay in a circuit instance,
// and is the unit of defect location in the segment-oriented defect
// model (Definition D.9).
type ArcID int32

// NoGate is the invalid gate sentinel.
const NoGate GateID = -1

// Gate is one cell instance (vertex of the circuit DAG).
type Gate struct {
	ID     GateID
	Name   string
	Type   CellType
	Fanin  []GateID // ordered input drivers
	Fanout []GateID // gates reading this gate's output
	InArcs []ArcID  // InArcs[k] is the arc into input pin k
}

// Arc is a pin-to-pin timing edge: the path from gate From's output,
// through the interconnect, through input pin Pin of gate To, to gate
// To's output. Its delay aggregates wire delay and the cell's
// pin-to-pin delay, matching the cell-based statistical model of [5].
type Arc struct {
	ID   ArcID
	From GateID
	To   GateID
	Pin  int // input pin index on To
}

// Circuit is an immutable combinational (after scan conversion)
// gate-level netlist with its topological metadata precomputed.
type Circuit struct {
	Name    string
	Gates   []Gate
	Arcs    []Arc
	Inputs  []GateID // primary + pseudo-primary inputs, in declaration order
	Outputs []GateID // primary + pseudo-primary outputs, in declaration order
	Order   []GateID // a topological order over all gates
	Levels  []int    // Levels[g] = longest distance (in arcs) from any input

	byName map[string]GateID
}

// Builder incrementally constructs a Circuit. Gates may be declared in
// any order; fan-in references are resolved by name at Build time.
type Builder struct {
	name    string
	gates   []builderGate
	inputs  []string
	outputs []string
	index   map[string]int
}

type builderGate struct {
	name  string
	typ   CellType
	fanin []string
}

// NewBuilder returns a Builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, index: make(map[string]int)}
}

// AddInput declares a primary input named name.
func (b *Builder) AddInput(name string) error {
	if err := b.declare(name, Input, nil); err != nil {
		return err
	}
	b.inputs = append(b.inputs, name)
	return nil
}

// MarkOutput declares that the named signal is a primary output. The
// signal itself may be declared before or after this call.
func (b *Builder) MarkOutput(name string) {
	b.outputs = append(b.outputs, name)
}

// AddGate declares a gate computing typ over the named fan-in signals.
func (b *Builder) AddGate(name string, typ CellType, fanin ...string) error {
	return b.declare(name, typ, fanin)
}

func (b *Builder) declare(name string, typ CellType, fanin []string) error {
	if name == "" {
		return fmt.Errorf("circuit: empty gate name")
	}
	if _, dup := b.index[name]; dup {
		return fmt.Errorf("circuit: duplicate signal %q", name)
	}
	if n := len(fanin); n < typ.MinFanin() || (typ.MaxFanin() >= 0 && n > typ.MaxFanin()) {
		return fmt.Errorf("circuit: %v gate %q has %d inputs", typ, name, n)
	}
	b.index[name] = len(b.gates)
	b.gates = append(b.gates, builderGate{name: name, typ: typ, fanin: fanin})
	return nil
}

// Build resolves all references, scan-converts DFFs if scanConvert is
// set (each DFF output becomes a pseudo-primary input and each DFF data
// input a pseudo-primary output, the standard full-scan view used for
// delay test), verifies acyclicity, and returns the finished Circuit.
func (b *Builder) Build(scanConvert bool) (*Circuit, error) {
	gates := b.gates
	inputs := append([]string(nil), b.inputs...)
	outputs := append([]string(nil), b.outputs...)

	if scanConvert {
		var err error
		gates, inputs, outputs, err = b.scanConvert()
		if err != nil {
			return nil, err
		}
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("circuit %q: no inputs", b.name)
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("circuit %q: no outputs", b.name)
	}

	index := make(map[string]int, len(gates))
	for i, g := range gates {
		if _, dup := index[g.name]; dup {
			return nil, fmt.Errorf("circuit: duplicate signal %q", g.name)
		}
		index[g.name] = i
	}

	c := &Circuit{
		Name:   b.name,
		Gates:  make([]Gate, 0, len(gates)+len(outputs)),
		byName: make(map[string]GateID, len(gates)+len(outputs)),
	}
	for _, g := range gates {
		id := GateID(len(c.Gates))
		c.Gates = append(c.Gates, Gate{ID: id, Name: g.name, Type: g.typ})
		c.byName[g.name] = id
	}
	// Materialize explicit Output port gates so POs are vertices of O
	// distinct from internal signals (Definition D.1 requires I∩O = ∅
	// and our synthetic/ISCAS netlists may output an input directly).
	for _, name := range outputs {
		src, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("circuit: output %q is undeclared", name)
		}
		id := GateID(len(c.Gates))
		portName := name + "$out"
		c.Gates = append(c.Gates, Gate{ID: id, Name: portName, Type: Output})
		c.byName[portName] = id
		c.Gates[id].Fanin = []GateID{GateID(src)}
		c.Outputs = append(c.Outputs, id)
	}
	// Resolve fan-in names for the original gates.
	for i, g := range gates {
		if len(g.fanin) == 0 {
			continue
		}
		fin := make([]GateID, len(g.fanin))
		for k, ref := range g.fanin {
			j, ok := index[ref]
			if !ok {
				return nil, fmt.Errorf("circuit: gate %q references undeclared signal %q", g.name, ref)
			}
			fin[k] = GateID(j)
		}
		c.Gates[i].Fanin = fin
	}
	for _, name := range inputs {
		c.Inputs = append(c.Inputs, GateID(index[name]))
	}

	// Create arcs and fanout lists.
	for gi := range c.Gates {
		g := &c.Gates[gi]
		g.InArcs = make([]ArcID, len(g.Fanin))
		for k, from := range g.Fanin {
			aid := ArcID(len(c.Arcs))
			c.Arcs = append(c.Arcs, Arc{ID: aid, From: from, To: g.ID, Pin: k})
			g.InArcs[k] = aid
			c.Gates[from].Fanout = append(c.Gates[from].Fanout, g.ID)
		}
	}

	if err := c.computeOrder(); err != nil {
		return nil, err
	}
	c.computeLevels()
	return c, nil
}

// scanConvert rewrites DFFs: the DFF's output name becomes an Input
// (pseudo-PI) and its data-input signal is marked as an Output
// (pseudo-PO). Original PIs/POs are retained.
func (b *Builder) scanConvert() (gates []builderGate, inputs, outputs []string, err error) {
	inputs = append([]string(nil), b.inputs...)
	outputs = append([]string(nil), b.outputs...)
	for _, g := range b.gates {
		if g.typ != DFF {
			gates = append(gates, g)
			continue
		}
		if len(g.fanin) != 1 {
			return nil, nil, nil, fmt.Errorf("circuit: DFF %q has %d inputs", g.name, len(g.fanin))
		}
		gates = append(gates, builderGate{name: g.name, typ: Input})
		inputs = append(inputs, g.name)
		outputs = append(outputs, g.fanin[0])
	}
	return gates, inputs, outputs, nil
}

// GateByName returns the gate with the given signal name.
func (c *Circuit) GateByName(name string) (*Gate, bool) {
	id, ok := c.byName[name]
	if !ok {
		return nil, false
	}
	return &c.Gates[id], true
}

// NumGates returns the number of gates (including port gates).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// OutputIndex returns the position of gate id within c.Outputs, or -1.
func (c *Circuit) OutputIndex(id GateID) int {
	for i, o := range c.Outputs {
		if o == id {
			return i
		}
	}
	return -1
}

// computeOrder performs Kahn's algorithm, failing on cycles. Among
// ready gates the smallest ID is taken first, so the order is
// deterministic for a given netlist.
func (c *Circuit) computeOrder() error {
	indeg := make([]int, len(c.Gates))
	for i := range c.Gates {
		indeg[i] = len(c.Gates[i].Fanin)
	}
	ready := make([]GateID, 0, len(c.Gates))
	for i := range c.Gates {
		if indeg[i] == 0 {
			ready = append(ready, GateID(i))
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	order := make([]GateID, 0, len(c.Gates))
	// Min-heap behaviour is unnecessary; FIFO over a sorted seed plus
	// deterministic fanout order yields a stable topological order.
	for len(ready) > 0 {
		g := ready[0]
		ready = ready[1:]
		order = append(order, g)
		for _, fo := range c.Gates[g].Fanout {
			indeg[fo]--
			if indeg[fo] == 0 {
				ready = append(ready, fo)
			}
		}
	}
	if len(order) != len(c.Gates) {
		return fmt.Errorf("circuit %q: cycle detected (%d of %d gates ordered); sequential loops must be cut by scan conversion", c.Name, len(order), len(c.Gates))
	}
	c.Order = order
	return nil
}

// computeLevels assigns each gate its longest arc-distance from any
// zero-fanin gate.
func (c *Circuit) computeLevels() {
	c.Levels = make([]int, len(c.Gates))
	for _, g := range c.Order {
		lvl := 0
		for _, fi := range c.Gates[g].Fanin {
			if l := c.Levels[fi] + 1; l > lvl {
				lvl = l
			}
		}
		c.Levels[g] = lvl
	}
}

// Depth returns the maximum level over all gates (the logic depth).
func (c *Circuit) Depth() int {
	d := 0
	for _, l := range c.Levels {
		if l > d {
			d = l
		}
	}
	return d
}
