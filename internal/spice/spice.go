// Package spice is the circuit simulator substrate of the study — the
// stand-in for the commercial SPICE the paper runs its SRAM netlists on.
//
// It implements nodal analysis with Norton-transformed voltage sources
// (see internal/circuit), Newton–Raphson iteration over the alpha-power
// MOSFET models, gmin stepping for the DC operating point, and fixed-step
// transient integration with backward-Euler or trapezoidal companion
// models for capacitors. Waveforms are probed per node and threshold
// crossings (the paper's time-to-discharge measurement) are extracted with
// linear interpolation.
package spice

import (
	"fmt"
	"math"

	"mpsram/internal/circuit"
)

// Integrator selects the companion model used for capacitors.
type Integrator int

const (
	// Trapezoidal is second-order accurate and the default.
	Trapezoidal Integrator = iota
	// BackwardEuler is first-order, stiffly stable, used for ablation.
	BackwardEuler
)

func (i Integrator) String() string {
	if i == BackwardEuler {
		return "backward-euler"
	}
	return "trapezoidal"
}

// Options tunes the engine.
type Options struct {
	Method    Integrator
	Gmin      float64 // conductance from every node to ground (default 1e-12)
	AbsTol    float64 // Newton absolute voltage tolerance (default 1 µV)
	RelTol    float64 // Newton relative tolerance (default 1e-6)
	MaxNewton int     // max Newton iterations per solve (default 60)
	VLimit    float64 // per-iteration voltage step clamp (default 0.4 V)
}

func (o Options) withDefaults() Options {
	if o.Gmin == 0 {
		o.Gmin = 1e-12
	}
	if o.AbsTol == 0 {
		o.AbsTol = 1e-6
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-6
	}
	if o.MaxNewton == 0 {
		o.MaxNewton = 60
	}
	if o.VLimit == 0 {
		o.VLimit = 0.4
	}
	return o
}

// Engine simulates one netlist. An Engine owns all the scratch a transient
// needs — the compiled topology, the matrix value arrays, the Newton
// iteration buffers and the waveform storage — and Reset re-targets the
// whole bundle at a mutated netlist without going back to the allocator,
// which is what makes SPICE-in-the-loop Monte-Carlo affordable (one
// resident Engine per worker instead of a New per trial).
//
// The matrices are flat value arrays over the slots of the current
// topology's symbolic LU (see topology): assembling one is a copy plus
// indexed adds, and solving it is a numeric refactorization with no
// searching, sorting or allocation.
type Engine struct {
	ckt  *circuit.Netlist
	opts Options
	n    int // unknowns (nodes minus ground)

	// topo is the compiled topology of ckt; topos caches the most
	// recently used ones (most recent first) so Resets that bounce
	// between a few netlist shapes compile each only once. key is the
	// fingerprint scratch.
	topo  *topology
	topos []*topology
	key   []int32

	// static holds the time-invariant resistive stamps: resistors,
	// voltage-source series conductances, gmin.
	static []float64
	// capBase holds static plus the capacitor companion conductances for
	// step capDt (rebuilt when dt changes).
	capDt   float64
	capBase []float64
	// capState tracks per-capacitor branch current (trapezoidal).
	capI []float64
	// nodeset seeds the DC solve (SPICE .nodeset): during the early gmin
	// stages each listed node is weakly tied to its hint voltage, which
	// selects the intended solution basin in bistable circuits (SRAM
	// cells have a metastable saddle Newton would otherwise find).
	nodeset map[circuit.NodeID]float64

	// Reusable scratch. work is the per-Newton-iteration matrix (a copy
	// of the base plus the MOSFET stamps, factored in place), dcBase the
	// per-stage DC and per-step adaptive matrix, rhsStep/rhsIter the
	// per-step and per-iteration right-hand sides, sol the solver output,
	// x0 the DC initial guess, xA/xB the ping-pong Newton solution
	// buffers, adapt the adaptive integrator's detached states, bps its
	// breakpoints, and resT/resV the waveform storage behind the Result
	// of the fixed-step Transient.
	work    []float64
	dcBase  []float64
	rhsStep []float64
	rhsIter []float64
	sol     []float64
	x0      []float64
	xA, xB  []float64
	adapt   [4][]float64
	bps     []float64
	resT    []float64
	resV    [][]float64
}

// SetNodeset installs DC solution hints (see the nodeset field).
func (e *Engine) SetNodeset(hints map[circuit.NodeID]float64) { e.nodeset = hints }

// New builds an engine after validating the netlist.
func New(ckt *circuit.Netlist, opts Options) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(ckt, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-targets the engine at netlist ckt under options opts, reusing
// every internal allocation: the compiled topology, the matrix value
// arrays, the Newton and right-hand-side scratch and the waveform
// buffers. The netlist may differ arbitrarily from the previous one
// (parameter mutations, different size); when its topology is one of the
// engine's recently compiled ones the rebuild performs no heap allocation
// at all. Results are bit-for-bit identical to a freshly constructed
// engine on the same netlist: Reset only removes reallocation, never
// changes an arithmetic step.
//
// Reset clears any installed nodeset and invalidates Results returned by
// earlier Transient calls on this engine (their waveform storage is
// recycled).
func (e *Engine) Reset(ckt *circuit.Netlist, opts Options) error {
	if err := ckt.Validate(); err != nil {
		return err
	}
	n := ckt.NumNodes() - 1
	if n <= 0 {
		return fmt.Errorf("spice: netlist has no non-ground nodes")
	}
	e.ckt = ckt
	e.opts = opts.withDefaults()
	e.n = n
	if err := e.useTopology(); err != nil {
		return err
	}
	e.static = grow(e.static, e.topo.slots())
	e.buildStaticInto(e.static, e.opts.Gmin)
	// Invalidate the capacitor companion cache: NaN never compares equal
	// to a valid dt, so the next Transient rebuilds it from the new
	// element values.
	e.capDt = math.NaN()
	e.capI = grow(e.capI, len(ckt.Cs))
	clear(e.capI)
	e.nodeset = nil
	return nil
}

// grow returns buf resliced to length n, reallocating only when its
// capacity is short. The contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// ix maps a node to its matrix index; ground is −1.
func ix(id circuit.NodeID) int { return int(id) - 1 }

// rhsI injects current i into node a and out of node b.
func rhsI(rhs []float64, a, b circuit.NodeID, i float64) {
	if ia := ix(a); ia >= 0 {
		rhs[ia] += i
	}
	if ib := ix(b); ib >= 0 {
		rhs[ib] -= i
	}
}

// buildStaticInto assembles the time-invariant resistive stamps into m.
func (e *Engine) buildStaticInto(m []float64, gmin float64) {
	clear(m)
	for i := 0; i < e.n; i++ {
		m[e.topo.sym.Diag(i)] += gmin
	}
	for k, r := range e.ckt.Rs {
		stampG(m, e.topo.rs[4*k:], 1/r.R)
	}
	for k, v := range e.ckt.Vs {
		stampG(m, e.topo.vs[4*k:], 1/v.RS)
	}
}

// buildCapBase caches static + capacitor companion conductances for dt.
func (e *Engine) buildCapBase(dt float64) {
	if e.capDt == dt {
		return
	}
	e.capBase = grow(e.capBase, len(e.static))
	copy(e.capBase, e.static)
	k := 1.0
	if e.opts.Method == Trapezoidal {
		k = 2.0
	}
	for ci, c := range e.ckt.Cs {
		stampG(e.capBase, e.topo.cs[4*ci:], k*c.C/dt)
	}
	e.capDt = dt
}

// rhsBuf returns the per-step right-hand-side buffer, zeroed and sized to
// the current unknown count.
func (e *Engine) rhsBuf() []float64 {
	e.rhsStep = grow(e.rhsStep, e.n)
	clear(e.rhsStep)
	return e.rhsStep
}

// solutionBuf returns one of the two ping-pong Newton solution buffers,
// never the one aliasing avoid (the caller's x0 must survive a failed
// solve, and the transient loop reads the previous step's solution after
// the new one lands).
func (e *Engine) solutionBuf(avoid []float64) []float64 {
	// Cap-based reslice like the other scratch buffers, so Resets that
	// bounce between netlist sizes (a multi-size Monte-Carlo trial) stay
	// allocation-free; newtonSolve fully overwrites the buffer, and the
	// identity check below survives reslicing (the base pointer does not
	// move).
	e.xA = grow(e.xA, e.n)
	e.xB = grow(e.xB, e.n)
	if len(avoid) > 0 && &avoid[0] == &e.xA[0] {
		return e.xB
	}
	return e.xA
}

// sourceRHS adds the independent-source currents at time t.
func (e *Engine) sourceRHS(rhs []float64, t float64) {
	for _, v := range e.ckt.Vs {
		rhsI(rhs, v.P, v.N, v.Wave.At(t)/v.RS)
	}
	for _, i := range e.ckt.Is {
		rhsI(rhs, i.P, i.N, i.Wave.At(t))
	}
}

// vAt reads node voltage from the solution vector.
func vAt(x []float64, id circuit.NodeID) float64 {
	if id == circuit.Ground {
		return 0
	}
	return x[ix(id)]
}

// newtonSolve iterates the MOSFET linearization around x0 on top of the
// prepared base matrix/rhs until convergence. base must include all linear
// stamps; rhsBase all linear source terms. Returns the converged solution,
// which lives in one of the engine's two ping-pong buffers (never the one
// holding x0) and stays valid until the buffer's next reuse — callers
// consume it before the second-following newtonSolve call. x0 is left
// untouched on failure.
func (e *Engine) newtonSolve(base []float64, rhsBase []float64, x0 []float64) ([]float64, error) {
	x := e.solutionBuf(x0)
	copy(x, x0)
	e.work = grow(e.work, len(base))
	e.rhsIter = grow(e.rhsIter, e.n)
	e.sol = grow(e.sol, e.n)
	m, rhs, xNew := e.work, e.rhsIter, e.sol
	sym, slots := e.topo.sym, e.topo.ms
	o := e.opts
	for iter := 0; iter < o.MaxNewton; iter++ {
		copy(m, base)
		copy(rhs, rhsBase)
		for k, mos := range e.ckt.Ms {
			vgs := vAt(x, mos.G) - vAt(x, mos.S)
			vds := vAt(x, mos.D) - vAt(x, mos.S)
			id, gm, gds := mos.Model.Eval(mos.W, vgs, vds)
			// Linearized drain current: id + gm·Δvgs + gds·Δvds.
			// Stamp conductances and the Norton residual current.
			ieq := id - gm*vgs - gds*vds
			s := slots[6*k : 6*k+6]
			m[s[0]] += gm
			m[s[1]] += gds
			m[s[2]] += -gm - gds
			m[s[3]] += -gm
			m[s[4]] += -gds
			m[s[5]] += gm + gds
			if iD := ix(mos.D); iD >= 0 {
				rhs[iD] -= ieq
			}
			if iS := ix(mos.S); iS >= 0 {
				rhs[iS] += ieq
			}
		}
		if err := sym.Solve(m[:sym.NNZ()], rhs, xNew); err != nil {
			return nil, fmt.Errorf("spice: newton iteration %d: %w", iter, err)
		}
		// Damped update with per-node step clamp.
		conv := true
		for i := range xNew {
			d := xNew[i] - x[i]
			if d > o.VLimit {
				d = o.VLimit
				conv = false
			} else if d < -o.VLimit {
				d = -o.VLimit
				conv = false
			}
			if math.Abs(d) > o.AbsTol+o.RelTol*math.Abs(x[i]) {
				conv = false
			}
			x[i] += d
		}
		if conv {
			return x, nil
		}
	}
	return nil, fmt.Errorf("spice: newton failed to converge in %d iterations", o.MaxNewton)
}

// DCOperatingPoint solves the bias point at t = 0 with capacitors open,
// using gmin stepping for robustness: the ground-shunt conductance starts
// large and is relaxed geometrically to the target.
//
// The returned slice lives in one of the engine's reusable Newton
// buffers and is overwritten by the next DCOperatingPoint, Transient or
// TransientAdaptive call on this engine; callers comparing bias points
// across runs must copy it first.
func (e *Engine) DCOperatingPoint() ([]float64, error) {
	e.x0 = grow(e.x0, e.n)
	x := e.x0
	clear(x)
	for id, v := range e.nodeset {
		if i := ix(id); i >= 0 {
			x[i] = v
		}
	}
	var lastErr error
	stages := [...]float64{1e-3, 1e-5, 1e-7, 1e-9, e.opts.Gmin}
	e.dcBase = grow(e.dcBase, len(e.static))
	base := e.dcBase
	for si, gmin := range stages {
		e.buildStaticInto(base, gmin)
		rhs := e.rhsBuf()
		e.sourceRHS(rhs, 0)
		if si < len(stages)-1 {
			// Hold nodeset hints with a 1 mS tie during the damped
			// stages; the final stage releases them.
			const gns = 1e-3
			for id, v := range e.nodeset {
				if i := ix(id); i >= 0 {
					base[e.topo.sym.Diag(i)] += gns
					rhs[i] += gns * v
				}
			}
		}
		xNew, err := e.newtonSolve(base, rhs, x)
		if err != nil {
			lastErr = err
			continue
		}
		x = xNew
		lastErr = nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("spice: DC operating point: %w", lastErr)
	}
	return x, nil
}

// Result holds probed transient waveforms.
type Result struct {
	T     []float64
	Nodes []circuit.NodeID
	V     [][]float64 // V[probe][step]
	names []string
}

// Probe returns the waveform of the i-th probed node.
func (r *Result) Probe(i int) []float64 { return r.V[i] }

// NodeWave returns the waveform of a probed node id (nil if not probed).
func (r *Result) NodeWave(id circuit.NodeID) []float64 {
	for i, n := range r.Nodes {
		if n == id {
			return r.V[i]
		}
	}
	return nil
}

// FirstCrossing returns the first time the scalar series f(step) crosses
// the threshold in the rising (dir>0) or falling (dir<0) direction, with
// linear interpolation between steps. Returns an error if no crossing.
func (r *Result) FirstCrossing(f func(step int) float64, threshold float64, dir int) (float64, error) {
	prev := f(0)
	for k := 1; k < len(r.T); k++ {
		cur := f(k)
		crossed := (dir >= 0 && prev < threshold && cur >= threshold) ||
			(dir < 0 && prev > threshold && cur <= threshold)
		if crossed {
			frac := (threshold - prev) / (cur - prev)
			return r.T[k-1] + frac*(r.T[k]-r.T[k-1]), nil
		}
		prev = cur
	}
	return 0, fmt.Errorf("spice: no threshold crossing of %g found in %d steps", threshold, len(r.T))
}

// StopFunc lets callers terminate a transient early; it receives the step
// index and a voltage accessor.
type StopFunc func(t float64, v func(circuit.NodeID) float64) bool

// Transient integrates from 0 to tEnd with fixed step dt, starting from
// the DC operating point, probing the given nodes each step. If stop is
// non-nil the run ends once it returns true (after recording that step).
//
// The returned Result's waveform storage belongs to the engine and is
// recycled by the next Transient or Reset call on this engine; callers
// that keep an engine resident across runs must extract what they need
// (crossings, measurements, copies) before reusing the engine.
func (e *Engine) Transient(tEnd, dt float64, probes []circuit.NodeID, stop StopFunc) (*Result, error) {
	if dt <= 0 || tEnd <= 0 || tEnd < dt {
		return nil, fmt.Errorf("spice: bad transient window tEnd=%g dt=%g", tEnd, dt)
	}
	x, err := e.DCOperatingPoint()
	if err != nil {
		return nil, err
	}
	e.buildCapBase(dt)
	// Reset trapezoidal capacitor currents from the DC point (zero).
	for i := range e.capI {
		e.capI[i] = 0
	}
	steps := int(math.Ceil(tEnd/dt)) + 1
	res := &Result{Nodes: probes}
	if cap(e.resT) < steps {
		e.resT = make([]float64, 0, steps)
	}
	res.T = e.resT[:0]
	if cap(e.resV) >= len(probes) {
		e.resV = e.resV[:len(probes)]
	} else {
		old := e.resV
		e.resV = make([][]float64, len(probes))
		copy(e.resV, old)
	}
	res.V = e.resV
	for i := range res.V {
		if cap(res.V[i]) < steps {
			res.V[i] = make([]float64, 0, steps)
		} else {
			res.V[i] = res.V[i][:0]
		}
	}
	record := func(t float64, x []float64) {
		res.T = append(res.T, t)
		for i, p := range probes {
			res.V[i] = append(res.V[i], vAt(x, p))
		}
	}
	record(0, x)
	// One voltage accessor for the whole run: it reads x as the loop
	// advances it, so stop costs no allocation per step.
	probe := func(id circuit.NodeID) float64 { return vAt(x, id) }
	trap := e.opts.Method == Trapezoidal
	k := 1.0
	if trap {
		k = 2.0
	}
	for t := dt; t <= tEnd+dt/2; t += dt {
		rhs := e.rhsBuf()
		e.sourceRHS(rhs, t)
		// Capacitor companion currents from the previous state.
		for ci, c := range e.ckt.Cs {
			vPrev := vAt(x, c.A) - vAt(x, c.B)
			ieq := k * c.C / dt * vPrev
			if trap {
				ieq += e.capI[ci]
			}
			rhsI(rhs, c.A, c.B, ieq)
		}
		xNew, err := e.newtonSolve(e.capBase, rhs, x)
		if err != nil {
			return nil, fmt.Errorf("spice: transient at t=%g: %w", t, err)
		}
		// Update capacitor branch currents (trapezoidal state).
		if trap {
			for ci, c := range e.ckt.Cs {
				vPrev := vAt(x, c.A) - vAt(x, c.B)
				vNow := vAt(xNew, c.A) - vAt(xNew, c.B)
				e.capI[ci] = k*c.C/dt*(vNow-vPrev) - e.capI[ci]
			}
		}
		x = xNew
		record(t, x)
		if stop != nil && stop(t, probe) {
			break
		}
	}
	// Retain grown waveform storage for the next run on this engine.
	e.resT = res.T
	return res, nil
}
