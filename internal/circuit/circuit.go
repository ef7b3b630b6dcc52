// Package circuit provides the netlist data model consumed by the SPICE
// engine: named nodes, linear elements (R, C), independent sources with
// time-dependent waveforms, and MOSFET instances referencing compact-model
// cards from internal/device.
//
// Voltage sources carry a small built-in series resistance and are stamped
// as Norton equivalents by the engine; this keeps the system matrix purely
// nodal (no branch-current unknowns), strictly diagonally dominant for RC
// networks, and therefore stable under pivot-free sparse elimination. The
// default 0.05 Ω is five orders of magnitude below the circuit impedances
// in this study.
package circuit

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mpsram/internal/device"
)

// NodeID identifies a circuit node; 0 is ground.
type NodeID int

// Ground is the reference node.
const Ground NodeID = 0

// Waveform is a time-dependent source value.
type Waveform interface {
	// At returns the source value at time t (seconds).
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At implements Waveform.
func (d DC) At(float64) float64 { return float64(d) }

// Pulse is a SPICE-style pulse: V0 until Delay, linear rise to V1 over
// Rise, hold for Width, linear fall back over Fall. Period 0 disables
// repetition.
type Pulse struct {
	V0, V1                   float64
	Delay, Rise, Width, Fall float64
	Period                   float64
}

// At implements Waveform.
func (p Pulse) At(t float64) float64 {
	t -= p.Delay
	if t < 0 {
		return p.V0
	}
	if p.Period > 0 {
		t = math.Mod(t, p.Period)
	}
	switch {
	case t < p.Rise:
		return p.V0 + (p.V1-p.V0)*t/p.Rise
	case t < p.Rise+p.Width:
		return p.V1
	case t < p.Rise+p.Width+p.Fall:
		f := (t - p.Rise - p.Width) / p.Fall
		return p.V1 + (p.V0-p.V1)*f
	default:
		return p.V0
	}
}

// PWL is a piecewise-linear waveform through (T[i], V[i]) points; constant
// extrapolation outside the range.
type PWL struct {
	T, V []float64
}

// At implements Waveform.
func (p PWL) At(t float64) float64 {
	n := len(p.T)
	if n == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	if t >= p.T[n-1] {
		return p.V[n-1]
	}
	i := sort.SearchFloat64s(p.T, t)
	// p.T[i-1] < t ≤ p.T[i]
	f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
	return p.V[i-1] + f*(p.V[i]-p.V[i-1])
}

// Resistor is a two-terminal linear resistance.
type Resistor struct {
	Label string
	A, B  NodeID
	R     float64
}

// Capacitor is a two-terminal linear capacitance.
type Capacitor struct {
	Label string
	A, B  NodeID
	C     float64
}

// VSource is an independent voltage source from P to N (V(P)−V(N) = wave)
// with built-in series resistance RS.
type VSource struct {
	Label string
	P, N  NodeID
	Wave  Waveform
	RS    float64
}

// ISource is an independent current source injecting into P (out of N).
type ISource struct {
	Label string
	P, N  NodeID
	Wave  Waveform
}

// MOSFET is a transistor instance.
type MOSFET struct {
	Label   string
	D, G, S NodeID
	Model   *device.MOS
	W       float64
}

// Netlist is a mutable circuit description.
type Netlist struct {
	names  []string // node name by id
	byName map[string]NodeID
	Rs     []Resistor
	Cs     []Capacitor
	Vs     []VSource
	Is     []ISource
	Ms     []MOSFET
}

// New returns an empty netlist with only the ground node ("0").
func New() *Netlist {
	return &Netlist{
		names:  []string{"0"},
		byName: map[string]NodeID{"0": Ground},
	}
}

// Node returns the id for name, creating the node on first use. The names
// "0", "gnd" and "GND" all alias ground.
func (n *Netlist) Node(name string) NodeID {
	if name == "gnd" || name == "GND" {
		name = "0"
	}
	if id, ok := n.byName[name]; ok {
		return id
	}
	id := NodeID(len(n.names))
	n.names = append(n.names, name)
	n.byName[name] = id
	return id
}

// Reset restores the netlist to the empty single-ground state while
// retaining the element and node storage already allocated, so a builder
// that constructs many similar circuits (the column scratch of sram's
// pooled read sessions) can reuse one Netlist without reallocating its
// slices on every build.
func (n *Netlist) Reset() {
	n.names = n.names[:1]
	clear(n.byName)
	n.byName["0"] = Ground
	n.Rs = n.Rs[:0]
	n.Cs = n.Cs[:0]
	n.Vs = n.Vs[:0]
	n.Is = n.Is[:0]
	n.Ms = n.Ms[:0]
}

// NodeName returns the name of node id.
func (n *Netlist) NodeName(id NodeID) string {
	if int(id) < len(n.names) {
		return n.names[id]
	}
	return fmt.Sprintf("n%d", int(id))
}

// NumNodes returns the node count including ground.
func (n *Netlist) NumNodes() int { return len(n.names) }

// DefaultRS is the built-in series resistance of ideal voltage sources.
const DefaultRS = 0.05

// AddR appends a resistor and returns it for inspection.
func (n *Netlist) AddR(label string, a, b NodeID, r float64) *Resistor {
	n.Rs = append(n.Rs, Resistor{Label: label, A: a, B: b, R: r})
	return &n.Rs[len(n.Rs)-1]
}

// AddC appends a capacitor.
func (n *Netlist) AddC(label string, a, b NodeID, c float64) *Capacitor {
	n.Cs = append(n.Cs, Capacitor{Label: label, A: a, B: b, C: c})
	return &n.Cs[len(n.Cs)-1]
}

// AddV appends a voltage source with the default series resistance.
func (n *Netlist) AddV(label string, p, q NodeID, w Waveform) *VSource {
	n.Vs = append(n.Vs, VSource{Label: label, P: p, N: q, Wave: w, RS: DefaultRS})
	return &n.Vs[len(n.Vs)-1]
}

// AddI appends a current source.
func (n *Netlist) AddI(label string, p, q NodeID, w Waveform) *ISource {
	n.Is = append(n.Is, ISource{Label: label, P: p, N: q, Wave: w})
	return &n.Is[len(n.Is)-1]
}

// AddM appends a MOSFET instance.
func (n *Netlist) AddM(label string, d, g, s NodeID, model *device.MOS, w float64) *MOSFET {
	n.Ms = append(n.Ms, MOSFET{Label: label, D: d, G: g, S: s, Model: model, W: w})
	return &n.Ms[len(n.Ms)-1]
}

// Validate checks element sanity: positive R/C/W values, waveforms and
// models present, node ids in range.
func (n *Netlist) Validate() error {
	chk := func(id NodeID, what, label string) error {
		if id < 0 || int(id) >= len(n.names) {
			return fmt.Errorf("%s %s: node %d out of range", what, label, id)
		}
		return nil
	}
	for _, r := range n.Rs {
		if r.R <= 0 {
			return fmt.Errorf("resistor %s: non-positive value %g", r.Label, r.R)
		}
		if err := chk(r.A, "resistor", r.Label); err != nil {
			return err
		}
		if err := chk(r.B, "resistor", r.Label); err != nil {
			return err
		}
	}
	for _, c := range n.Cs {
		if c.C <= 0 {
			return fmt.Errorf("capacitor %s: non-positive value %g", c.Label, c.C)
		}
		if err := chk(c.A, "capacitor", c.Label); err != nil {
			return err
		}
		if err := chk(c.B, "capacitor", c.Label); err != nil {
			return err
		}
	}
	for _, v := range n.Vs {
		if v.Wave == nil {
			return fmt.Errorf("vsource %s: nil waveform", v.Label)
		}
		if v.RS <= 0 {
			return fmt.Errorf("vsource %s: non-positive series resistance", v.Label)
		}
		if err := chk(v.P, "vsource", v.Label); err != nil {
			return err
		}
		if err := chk(v.N, "vsource", v.Label); err != nil {
			return err
		}
	}
	for _, i := range n.Is {
		if i.Wave == nil {
			return fmt.Errorf("isource %s: nil waveform", i.Label)
		}
		if err := chk(i.P, "isource", i.Label); err != nil {
			return err
		}
	}
	for _, m := range n.Ms {
		if m.Model == nil {
			return fmt.Errorf("mosfet %s: nil model", m.Label)
		}
		if m.W <= 0 {
			return fmt.Errorf("mosfet %s: non-positive width %g", m.Label, m.W)
		}
		if err := m.Model.Validate(); err != nil {
			return fmt.Errorf("mosfet %s: %w", m.Label, err)
		}
		for _, id := range []NodeID{m.D, m.G, m.S} {
			if err := chk(id, "mosfet", m.Label); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats summarizes the netlist size.
func (n *Netlist) Stats() string {
	return fmt.Sprintf("%d nodes, %d R, %d C, %d V, %d I, %d M",
		n.NumNodes(), len(n.Rs), len(n.Cs), len(n.Vs), len(n.Is), len(n.Ms))
}

// WriteSpice renders the netlist in a SPICE-flavoured text format (one
// element per line) for inspection or consumption by external tools.
func (n *Netlist) WriteSpice(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s\n", title)
	for _, r := range n.Rs {
		fmt.Fprintf(&b, "R%s %s %s %.6g\n", r.Label, n.NodeName(r.A), n.NodeName(r.B), r.R)
	}
	for _, c := range n.Cs {
		fmt.Fprintf(&b, "C%s %s %s %.6g\n", c.Label, n.NodeName(c.A), n.NodeName(c.B), c.C)
	}
	for _, v := range n.Vs {
		switch w := v.Wave.(type) {
		case DC:
			fmt.Fprintf(&b, "V%s %s %s DC %.6g\n", v.Label, n.NodeName(v.P), n.NodeName(v.N), float64(w))
		case Pulse:
			fmt.Fprintf(&b, "V%s %s %s PULSE(%.6g %.6g %.6g %.6g %.6g %.6g)\n",
				v.Label, n.NodeName(v.P), n.NodeName(v.N), w.V0, w.V1, w.Delay, w.Rise, w.Fall, w.Width)
		default:
			fmt.Fprintf(&b, "V%s %s %s DC %.6g\n", v.Label, n.NodeName(v.P), n.NodeName(v.N), v.Wave.At(0))
		}
	}
	for _, i := range n.Is {
		fmt.Fprintf(&b, "I%s %s %s DC %.6g\n", i.Label, n.NodeName(i.P), n.NodeName(i.N), i.Wave.At(0))
	}
	for _, m := range n.Ms {
		fmt.Fprintf(&b, "M%s %s %s %s %s %s W=%.4g\n", m.Label,
			n.NodeName(m.D), n.NodeName(m.G), n.NodeName(m.S), n.NodeName(m.S), m.Model.Name, m.W)
	}
	b.WriteString(".end\n")
	return b.String()
}
