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
	Method Integrator
}

// Newton and DC settings every engine uses.
const (
	gmin      = 1e-12 // conductance from every node to ground
	absTol    = 1e-6  // Newton absolute voltage tolerance (1 µV)
	relTol    = 1e-6  // Newton relative tolerance
	maxNewton = 60    // max Newton iterations per solve
	vLimit    = 0.4   // per-iteration voltage step clamp (V)
)

// Engine simulates one netlist. An Engine owns all the scratch a transient
// needs — the compiled topology, the matrix value arrays, the Newton
// iteration buffers and the returned Result with its waveform storage —
// and Reset re-targets the whole bundle at a mutated netlist without
// going back to the allocator, which is what makes SPICE-in-the-loop
// Monte-Carlo affordable (a resident Engine re-targeted per read instead
// of a New per trial).
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
	// buffers, adapt the adaptive integrator's detached states and bps
	// its breakpoints.
	work    []float64
	dcBase  []float64
	rhsStep []float64
	rhsIter []float64
	sol     []float64
	x0      []float64
	xA, xB  []float64
	adapt   [4][]float64
	bps     []float64

	// res is the Result both integrators return, waveform storage
	// included. probe is the voltage accessor handed to a StopFunc, built
	// once per engine; it reads probeX, the state of the step being
	// checked.
	res    Result
	probe  func(circuit.NodeID) float64
	probeX []float64
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
// Reset clears any installed nodeset and invalidates the Result returned
// by an earlier Transient or TransientAdaptive call on this engine (it is
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
	e.opts = opts
	e.n = n
	if err := e.useTopology(); err != nil {
		return err
	}
	e.static = grow(e.static, e.topo.slots())
	e.buildStaticInto(e.static, gmin)
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

// buildStaticInto assembles the time-invariant resistive stamps into m,
// with a shunt conductance g from every node to ground.
func (e *Engine) buildStaticInto(m []float64, g float64) {
	clear(m)
	for i := 0; i < e.n; i++ {
		m[e.topo.sym.Diag(i)] += g
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
	for iter := 0; iter < maxNewton; iter++ {
		copy(m, base)
		copy(rhs, rhsBase)
		for k, mos := range e.ckt.Ms {
			vgs := vAt(x, mos.G) - vAt(x, mos.S)
			vds := vAt(x, mos.D) - vAt(x, mos.S)
			id, gm, gds := mos.Model.Eval(mos.W, vgs, vds)
			// Linearized drain current: id + gm·Δvgs + gds·Δvds.
			// Stamp conductances and the Norton residual current.
			ieq := id - float64(gm*vgs) - float64(gds*vds)
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
			if d > vLimit {
				d = vLimit
				conv = false
			} else if d < -vLimit {
				d = -vLimit
				conv = false
			}
			if math.Abs(d) > absTol+float64(relTol*math.Abs(x[i])) {
				conv = false
			}
			x[i] += d
		}
		if conv {
			return x, nil
		}
	}
	return nil, fmt.Errorf("spice: newton failed to converge in %d iterations", maxNewton)
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
	stages := [...]float64{1e-3, 1e-5, 1e-7, 1e-9, gmin}
	e.dcBase = grow(e.dcBase, len(e.static))
	base := e.dcBase
	for si, g := range stages {
		e.buildStaticInto(base, g)
		rhs := e.rhsBuf()
		e.sourceRHS(rhs, 0)
		if si < len(stages)-1 {
			// Hold nodeset hints with a 1 mS tie during the damped
			// stages; the final stage releases them.
			const gns = 1e-3
			for id, v := range e.nodeset {
				if i := ix(id); i >= 0 {
					base[e.topo.sym.Diag(i)] += gns
					rhs[i] += float64(gns * v)
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
			return r.T[k-1] + float64(frac*(r.T[k]-r.T[k-1])), nil
		}
		prev = cur
	}
	return 0, fmt.Errorf("spice: no threshold crossing of %g found in %d steps", threshold, len(r.T))
}

// StopFunc lets callers terminate a transient early; it receives the step
// time and a voltage accessor, which is valid only during the call.
type StopFunc func(t float64, v func(circuit.NodeID) float64) bool

// beginResult readies the engine-owned Result for a run probing probes,
// every waveform empty with room for steps samples (a longer run grows
// them, and the grown storage serves the next run).
func (e *Engine) beginResult(probes []circuit.NodeID, steps int) *Result {
	r := &e.res
	r.Nodes = probes
	r.T = emptyCap(r.T, steps)
	if cap(r.V) < len(probes) {
		v := make([][]float64, len(probes))
		copy(v, r.V[:cap(r.V)])
		r.V = v
	}
	r.V = r.V[:len(probes)]
	for i := range r.V {
		r.V[i] = emptyCap(r.V[i], steps)
	}
	return r
}

// emptyCap returns buf emptied, reallocated only when its capacity is
// below n.
func emptyCap(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, 0, n)
	}
	return buf[:0]
}

// record appends the probed voltages of state x at time t.
func (r *Result) record(t float64, x []float64) {
	r.T = append(r.T, t)
	for i, p := range r.Nodes {
		r.V[i] = append(r.V[i], vAt(x, p))
	}
}

// stopped reports whether stop ends the run at time t in state x.
func (e *Engine) stopped(stop StopFunc, t float64, x []float64) bool {
	if stop == nil {
		return false
	}
	if e.probe == nil {
		e.probe = func(id circuit.NodeID) float64 { return vAt(e.probeX, id) }
	}
	e.probeX = x
	return stop(t, e.probe)
}

// maxTransientSteps bounds the steps of a fixed-step window. A read's
// window is at most about 7 600 steps across the DOE; a window of more
// than 1 << 20 is a wrong tEnd or dt, and Transient refuses it before it
// sizes the waveform.
const maxTransientSteps = 1 << 20

// Transient integrates from 0 to tEnd with fixed step dt, starting from
// the DC operating point, probing the given nodes each step. If stop is
// non-nil the run ends once it returns true (after recording that step).
// A window that is not finite (NaN or infinite tEnd or dt), or that needs
// more than maxTransientSteps steps, is refused.
//
// The returned Result, waveforms included, belongs to the engine and is
// recycled by the next Transient, TransientAdaptive or Reset call on this
// engine; callers that keep an engine resident across runs must extract
// what they need (crossings, measurements, copies) before reusing it.
func (e *Engine) Transient(tEnd, dt float64, probes []circuit.NodeID, stop StopFunc) (*Result, error) {
	// Written so NaN fails it: tEnd/dt is NaN when both are infinite.
	if !(dt > 0 && tEnd >= dt && tEnd/dt <= maxTransientSteps) {
		return nil, fmt.Errorf("spice: bad transient window tEnd=%g dt=%g (want 0 < dt ≤ tEnd, at most %d steps)",
			tEnd, dt, maxTransientSteps)
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
	res := e.beginResult(probes, int(math.Ceil(tEnd/dt))+1)
	res.record(0, x)
	trap := e.opts.Method == Trapezoidal
	k := 1.0
	if trap {
		k = 2.0
	}
	for t := dt; t <= tEnd+float64(dt/2); t += dt {
		rhs := e.rhsBuf()
		e.sourceRHS(rhs, t)
		// Capacitor companion currents from the previous state.
		for ci, c := range e.ckt.Cs {
			vPrev := vAt(x, c.A) - vAt(x, c.B)
			ieq := float64(k * c.C / dt * vPrev)
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
				e.capI[ci] = float64(k*c.C/dt*(vNow-vPrev)) - e.capI[ci]
			}
		}
		x = xNew
		res.record(t, x)
		if e.stopped(stop, t, x) {
			break
		}
	}
	return res, nil
}
