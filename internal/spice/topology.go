package spice

import (
	"slices"

	"mpsram/internal/circuit"
	"mpsram/internal/sparse"
)

// maxTopologies bounds the engine's compiled-topology cache: enough for a
// multi-size Monte-Carlo trial that bounces one engine between a few
// column shapes.
const maxTopologies = 4

// topology is one netlist topology compiled for the engine: the symbolic
// LU of its stamp pattern and, per element, the value slots its stamps
// land in. A stamp on a ground terminal lands in the sink slot NNZ, past
// the solver's view of the values, so stamping needs no ground tests.
// Element values play no part, so one topology serves every parameter
// mutation of a netlist: each Monte-Carlo trial and each array size that
// maps to the same column shape.
type topology struct {
	key []int32 // fingerprint (see fingerprint)
	sym *sparse.Symbolic
	// Slots per two-terminal element (a, b) in stampG order: (a,a), (b,b),
	// (a,b), (b,a).
	rs, vs, cs []int32
	// Slots per MOSFET in stamp order: (d,g), (d,d), (d,s), (s,g), (s,d),
	// (s,s).
	ms []int32
}

// slots is the length of a value array over the topology: the solver's
// NNZ slots plus the ground sink.
func (t *topology) slots() int { return t.sym.NNZ() + 1 }

// fingerprint appends to dst[:0] what the matrix pattern and the stamp
// slots depend on: the node count and every R, V, C and MOSFET terminal
// list, in element order. Current sources stamp only the right-hand side.
func fingerprint(dst []int32, ckt *circuit.Netlist) []int32 {
	dst = append(dst[:0], int32(ckt.NumNodes()),
		int32(len(ckt.Rs)), int32(len(ckt.Vs)), int32(len(ckt.Cs)), int32(len(ckt.Ms)))
	for _, r := range ckt.Rs {
		dst = append(dst, int32(r.A), int32(r.B))
	}
	for _, v := range ckt.Vs {
		dst = append(dst, int32(v.P), int32(v.N))
	}
	for _, c := range ckt.Cs {
		dst = append(dst, int32(c.A), int32(c.B))
	}
	for _, m := range ckt.Ms {
		dst = append(dst, int32(m.D), int32(m.G), int32(m.S))
	}
	return dst
}

// useTopology points e.topo at the compiled topology of e.ckt, compiling
// it on a cache miss.
func (e *Engine) useTopology() error {
	e.key = fingerprint(e.key, e.ckt)
	for i, t := range e.topos {
		if slices.Equal(t.key, e.key) {
			copy(e.topos[1:i+1], e.topos[:i])
			e.topos[0], e.topo = t, t
			return nil
		}
	}
	t, err := compile(e.ckt, e.n, slices.Clone(e.key))
	if err != nil {
		return err
	}
	if len(e.topos) < maxTopologies {
		e.topos = append(e.topos, nil)
	}
	copy(e.topos[1:], e.topos)
	e.topos[0], e.topo = t, t
	return nil
}

// compile builds the topology of ckt (n unknowns) under fingerprint key.
func compile(ckt *circuit.Netlist, n int, key []int32) (*topology, error) {
	var pat []sparse.Coord
	at := func(r, c int) {
		if r >= 0 && c >= 0 {
			pat = append(pat, sparse.Coord{Row: int32(r), Col: int32(c)})
		}
	}
	two := func(a, b circuit.NodeID) {
		ia, ib := ix(a), ix(b)
		at(ia, ia)
		at(ib, ib)
		at(ia, ib)
		at(ib, ia)
	}
	for _, r := range ckt.Rs {
		two(r.A, r.B)
	}
	for _, v := range ckt.Vs {
		two(v.P, v.N)
	}
	for _, c := range ckt.Cs {
		two(c.A, c.B)
	}
	for _, m := range ckt.Ms {
		d, g, s := ix(m.D), ix(m.G), ix(m.S)
		at(d, g)
		at(d, d)
		at(d, s)
		at(s, g)
		at(s, d)
		at(s, s)
	}
	sym, err := sparse.Analyze(n, pat)
	if err != nil {
		return nil, err
	}
	sink := int32(sym.NNZ())
	slot := func(r, c int) int32 {
		if r < 0 || c < 0 {
			return sink
		}
		return int32(sym.Slot(r, c))
	}
	twoSlots := func(dst []int32, a, b circuit.NodeID) []int32 {
		ia, ib := ix(a), ix(b)
		return append(dst, slot(ia, ia), slot(ib, ib), slot(ia, ib), slot(ib, ia))
	}
	t := &topology{key: key, sym: sym}
	for _, r := range ckt.Rs {
		t.rs = twoSlots(t.rs, r.A, r.B)
	}
	for _, v := range ckt.Vs {
		t.vs = twoSlots(t.vs, v.P, v.N)
	}
	for _, c := range ckt.Cs {
		t.cs = twoSlots(t.cs, c.A, c.B)
	}
	for _, m := range ckt.Ms {
		d, g, s := ix(m.D), ix(m.G), ix(m.S)
		t.ms = append(t.ms, slot(d, g), slot(d, d), slot(d, s), slot(s, g), slot(s, d), slot(s, s))
	}
	return t, nil
}

// stampG adds conductance g between the terminals whose slots s holds
// (a two-terminal element's four slots, see topology).
func stampG(m []float64, s []int32, g float64) {
	m[s[0]] += g
	m[s[1]] += g
	m[s[2]] += -g
	m[s[3]] += -g
}
