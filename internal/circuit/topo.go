package circuit

// GateSet is a dense membership set over gates.
type GateSet []bool

// NewGateSet returns an empty set sized for circuit c.
func (c *Circuit) NewGateSet() GateSet { return make(GateSet, len(c.Gates)) }

// Add inserts a gate.
func (s GateSet) Add(id GateID) { s[id] = true }

// Has reports membership.
func (s GateSet) Has(id GateID) bool { return s[id] }

// Count returns the number of members.
func (s GateSet) Count() int {
	n := 0
	for _, v := range s {
		if v {
			n++
		}
	}
	return n
}

// ArcSet is a dense membership set over arcs.
type ArcSet []bool

// NewArcSet returns an empty set sized for circuit c.
func (c *Circuit) NewArcSet() ArcSet { return make(ArcSet, len(c.Arcs)) }

// Add inserts an arc.
func (s ArcSet) Add(id ArcID) { s[id] = true }

// Has reports membership.
func (s ArcSet) Has(id ArcID) bool { return s[id] }

// Count returns the number of members.
func (s ArcSet) Count() int {
	n := 0
	for _, v := range s {
		if v {
			n++
		}
	}
	return n
}

// IDs returns the member arc IDs in ascending order.
func (s ArcSet) IDs() []ArcID {
	var ids []ArcID
	for i, v := range s {
		if v {
			ids = append(ids, ArcID(i))
		}
	}
	return ids
}

// FaninCone returns the set of gates in the transitive fan-in of the
// given roots (roots included).
func (c *Circuit) FaninCone(roots ...GateID) GateSet {
	seen := c.NewGateSet()
	stack := append([]GateID(nil), roots...)
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[g] {
			continue
		}
		seen[g] = true
		stack = append(stack, c.Gates[g].Fanin...)
	}
	return seen
}

// FanoutCone returns the set of gates in the transitive fan-out of the
// given roots (roots included).
func (c *Circuit) FanoutCone(roots ...GateID) GateSet {
	seen := c.NewGateSet()
	stack := append([]GateID(nil), roots...)
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[g] {
			continue
		}
		seen[g] = true
		stack = append(stack, c.Gates[g].Fanout...)
	}
	return seen
}

// ArcFanoutGates returns the gates whose arrival times can change when
// the delay of arc a changes: gate a.To and its transitive fan-out.
// This is the incremental re-simulation region for a defect on a.
func (c *Circuit) ArcFanoutGates(a ArcID) GateSet {
	return c.FanoutCone(c.Arcs[a].To)
}
