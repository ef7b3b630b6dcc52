// Package sram builds the SPICE-level netlist of the paper's experiment
// vehicle: one column of a 6T SRAM array (the central bit-line pair of the
// 10-pair arrays in paper Fig. 3) with a distributed bit-line RC ladder,
// per-cell pass-gate loading, a precharge circuit whose drive scales with
// the array size, a VSS rail ladder, and the active cell at the far end of
// the line — the worst-case read.
//
// The read operation follows the paper's assumptions: vdd = precharge =
// word-line enable = 0.7 V; the read time td is the time from word-line
// enable until the sense differential |Vbl − Vblb| reaches 0.07 V at the
// sense-amplifier end of the column.
package sram

import (
	"fmt"
	"math"

	"mpsram/internal/circuit"
	"mpsram/internal/device"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

// BuildOptions tunes the column construction.
type BuildOptions struct {
	// Segments is the number of RC ladder segments the bit line is
	// discretized into (0 = automatic: min(n, 64)).
	Segments int
	// VssTapBothEnds straps the VSS rail at both column ends instead of
	// only at the sense end. The single-tap default is the conservative
	// routing that exposes the SADP RVSS anti-correlation the paper
	// discusses in Section III-A.
	VssTapBothEnds bool
	// Lumped collapses the bit line into a single RC (ablation of the
	// distributed model; the paper's formula assumes this).
	Lumped bool
	// LeakagePerCell injects the sub-threshold leakage of each unselected
	// pass gate as a DC pull-down on both bit lines (amperes per cell,
	// 0 disables). An extension: the paper's netlists include leakage
	// via the full device decks; here it is an explicit knob.
	LeakagePerCell float64
}

func (o BuildOptions) segments(n int) int {
	if o.Lumped {
		return 1
	}
	if o.Segments > 0 {
		if o.Segments > n {
			return n
		}
		return o.Segments
	}
	if n < 64 {
		return n
	}
	return 64
}

// Column is a buildable/runnable SRAM column.
type Column struct {
	Netlist *circuit.Netlist
	N       int

	// Probe nodes.
	BLSense  circuit.NodeID // bit line at the sense amplifier
	BLBSense circuit.NodeID // complement bit line at the sense amplifier
	BLFar    circuit.NodeID // bit line at the active cell
	WL       circuit.NodeID
	Q, QB    circuit.NodeID

	proc tech.Process
	nmos *device.MOS
	pmos *device.MOS

	// nodeset and probes are measureTdOn's storage, kept with the Column
	// so a ColumnBuilder's reused Column reuses them too.
	nodeset map[circuit.NodeID]float64
	probes  []circuit.NodeID
}

// CellParasitics carries the per-cell interconnect values used to build a
// column, already scaled by the patterning variability under study.
type CellParasitics struct {
	Rbl  float64 // bit-line resistance per cell, Ω
	Cbl  float64 // bit-line wire capacitance per cell, F
	Rvss float64 // VSS rail resistance per cell, Ω
}

// NominalParasitics extracts the nominal per-cell parasitics for process p
// using capacitance model cm (patterning option is irrelevant at nominal:
// all engines produce the same drawn geometry).
func NominalParasitics(p tech.Process, cm extract.CapModel) (CellParasitics, error) {
	win, err := litho.Realize(p, litho.EUV, litho.Nominal)
	if err != nil {
		return CellParasitics{}, err
	}
	cell := extract.PerCell(p, extract.ExtractVictim(p, win, cm))
	vss := extract.ExtractWire(p, win, win.Victim-1, cm)
	return CellParasitics{
		Rbl:  cell.Rbl,
		Cbl:  cell.Cbl,
		Rvss: vss.RPerM * p.Cell.XPitch,
	}, nil
}

// Scale applies the variability ratios to the nominal parasitics.
func (c CellParasitics) Scale(r extract.Ratios) CellParasitics {
	return CellParasitics{
		Rbl:  c.Rbl * r.Rvar,
		Cbl:  c.Cbl * r.Cvar,
		Rvss: c.Rvss * r.RvssVar,
	}
}

// CFE returns the per-cell front-end loading on the bit line: the off
// pass-gate junction capacitance (the paper's CFE).
func CFE(f tech.FEOL) float64 { return f.WPassGate * f.CJPerM }

// BuildColumn constructs the column netlist for an n-word-line array with
// the given per-cell parasitics.
//
// Topology (sense end = segment S, active cell at segment 0):
//
//	vdd ──[M_pre]── bl_S ──R── bl_{S-1} ── … ── bl_0 ──[M_pg]── q
//	                 │C+Cpre      │C                │C          [6T cell]
//	gnd ──(tap)──  vss_S ──R── vss_{S-1} ── … ── vss_0 ──[M_pd src]
func BuildColumn(p tech.Process, n int, cp CellParasitics, opt BuildOptions) (*Column, error) {
	sc := &columnScratch{nl: circuit.New()}
	return sc.build(device.NewNMOS(p.FEOL), device.NewPMOS(p.FEOL), p, n, cp, opt)
}

// columnScratch is the storage a column build fills — the netlist, the
// Column, the per-segment node ids — plus what a rebuild can reuse as is:
// the per-segment labels, formatted once per segment index, and the
// source waveforms, boxed once per supply voltage. ColumnBuilder keeps
// one across builds, so a rebuild on the reused netlist allocates almost
// nothing and calls no fmt.Sprintf.
type columnScratch struct {
	nl           *circuit.Netlist
	col          Column
	bl, blb, vss []circuit.NodeID

	blName, blbName, vssName, leakBLName, leakBLBName []string

	vdd           float64
	supply, pulse circuit.Waveform
}

// labels makes the per-segment labels of segments 0..segs available.
func (sc *columnScratch) labels(segs int) {
	for i := len(sc.blName); i <= segs; i++ {
		sc.blName = append(sc.blName, fmt.Sprintf("bl%d", i))
		sc.blbName = append(sc.blbName, fmt.Sprintf("blb%d", i))
		sc.vssName = append(sc.vssName, fmt.Sprintf("vss%d", i))
		sc.leakBLName = append(sc.leakBLName, fmt.Sprintf("leak_bl%d", i))
		sc.leakBLBName = append(sc.leakBLBName, fmt.Sprintf("leak_blb%d", i))
	}
}

// waves returns the supply and the word-line/precharge pulse for vdd.
func (sc *columnScratch) waves(vdd float64) (supply, pulse circuit.Waveform) {
	if sc.supply == nil || sc.vdd != vdd {
		sc.vdd = vdd
		sc.supply = circuit.DC(vdd)
		sc.pulse = circuit.Pulse{V0: 0, V1: vdd, Delay: 1e-12, Rise: 2e-12, Width: 1}
	}
	return sc.supply, sc.pulse
}

// nodes returns ids reusing buf's storage, resized to n.
func nodes(buf []circuit.NodeID, n int) []circuit.NodeID {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]circuit.NodeID, n)
}

// build constructs the column into the scratch, whose netlist must be
// empty (fresh or Reset); construction is deterministic, so a reused
// scratch yields element-for-element the same circuit as a fresh one. The
// returned Column aliases the scratch.
func (sc *columnScratch) build(nmos, pmos *device.MOS, p tech.Process, n int, cp CellParasitics, opt BuildOptions) (*Column, error) {
	if n < 1 {
		return nil, fmt.Errorf("sram: array size %d < 1", n)
	}
	if cp.Rbl <= 0 || cp.Cbl <= 0 || cp.Rvss <= 0 {
		return nil, fmt.Errorf("sram: non-positive parasitics %+v", cp)
	}
	f := p.FEOL
	nl := sc.nl
	col := &sc.col
	*col = Column{
		Netlist: nl,
		N:       n,
		proc:    p,
		nmos:    nmos,
		pmos:    pmos,
		nodeset: col.nodeset,
		probes:  col.probes,
	}

	segs := opt.segments(n)
	cellsPerSeg := float64(n) / float64(segs)
	cfe := CFE(f)
	sc.labels(segs)
	supply, pulse := sc.waves(f.Vdd)

	vdd := nl.Node("vdd")
	nl.AddV("vdd", vdd, circuit.Ground, supply)

	// Bit-line ladders (bl and blb are geometrically identical).
	blNodes := nodes(sc.bl, segs+1)
	blbNodes := nodes(sc.blb, segs+1)
	sc.bl, sc.blb = blNodes, blbNodes
	for i := 0; i <= segs; i++ {
		blNodes[i] = nl.Node(sc.blName[i])
		blbNodes[i] = nl.Node(sc.blbName[i])
	}
	segR := cp.Rbl * cellsPerSeg
	segC := (cp.Cbl + cfe) * cellsPerSeg
	for i := 0; i < segs; i++ {
		nl.AddR(sc.blName[i], blNodes[i], blNodes[i+1], segR)
		nl.AddR(sc.blbName[i], blbNodes[i], blbNodes[i+1], segR)
	}
	for i := 0; i <= segs; i++ {
		// Node i carries the wire+pass-gate load of its share of cells;
		// ends carry half a segment each (trapezoidal lumping).
		share := 1.0
		if i == 0 || i == segs {
			share = 0.5
		}
		if segs == 1 {
			share = 0.5 // two end nodes, half each
		}
		c := segC * share
		nl.AddC(sc.blName[i], blNodes[i], circuit.Ground, c)
		nl.AddC(sc.blbName[i], blbNodes[i], circuit.Ground, c)
	}

	// Unselected-cell pass-gate leakage, lumped per segment.
	if opt.LeakagePerCell > 0 {
		for i := 0; i <= segs; i++ {
			share := 1.0
			if i == 0 || i == segs {
				share = 0.5
			}
			if segs == 1 {
				share = 0.5
			}
			il := opt.LeakagePerCell * cellsPerSeg * share
			nl.AddI(sc.leakBLName[i], circuit.Ground, blNodes[i], circuit.DC(il))
			nl.AddI(sc.leakBLBName[i], circuit.Ground, blbNodes[i], circuit.DC(il))
		}
	}

	// VSS rail ladder, tapped to ground at the sense end (and optionally
	// at the cell end).
	vssNodes := nodes(sc.vss, segs+1)
	sc.vss = vssNodes
	for i := 0; i <= segs; i++ {
		vssNodes[i] = nl.Node(sc.vssName[i])
	}
	segRvss := cp.Rvss * cellsPerSeg
	for i := 0; i < segs; i++ {
		nl.AddR(sc.vssName[i], vssNodes[i], vssNodes[i+1], segRvss)
	}
	nl.AddR("vsstap", vssNodes[segs], circuit.Ground, 0.1)
	if opt.VssTapBothEnds {
		nl.AddR("vsstap0", vssNodes[0], circuit.Ground, 0.1)
	}

	// Precharge circuit at the sense end: PMOS devices with width
	// scaling WPre(n), plus the fixed column overhead CPre0. Device
	// junction capacitance is added explicitly (the compact model is
	// resistive).
	pre := nl.Node("pre")
	nl.AddV("pre", pre, circuit.Ground, pulse)
	wpre := f.WPre(n)
	nl.AddM("pre_bl", blNodes[segs], pre, vdd, col.pmos, wpre)
	nl.AddM("pre_blb", blbNodes[segs], pre, vdd, col.pmos, wpre)
	cpre := f.CPre0 + wpre*f.CJPerM
	nl.AddC("pre_bl", blNodes[segs], circuit.Ground, cpre)
	nl.AddC("pre_blb", blbNodes[segs], circuit.Ground, cpre)

	// Word line driver; the word line only loads the active cell's pass
	// gates (other rows have their own word lines, held low).
	wl := nl.Node("wl")
	nl.AddV("wl", wl, circuit.Ground, pulse)
	nl.AddC("wl", wl, circuit.Ground, 2*f.WPassGate*f.CGatePerM)

	// Active 6T cell at the far end, storing q=0 (read discharges bl).
	q := nl.Node("q")
	qb := nl.Node("qb")
	nl.AddM("pg1", blNodes[0], wl, q, col.nmos, f.WPassGate)
	nl.AddM("pg2", blbNodes[0], wl, qb, col.nmos, f.WPassGate)
	nl.AddM("pd1", q, qb, vssNodes[0], col.nmos, f.WPullDown)
	nl.AddM("pd2", qb, q, vssNodes[0], col.nmos, f.WPullDown)
	nl.AddM("pu1", q, qb, vdd, col.pmos, f.WPullUp)
	nl.AddM("pu2", qb, q, vdd, col.pmos, f.WPullUp)
	// Internal node capacitance: junctions of pd/pu/pg plus the opposite
	// inverter's gate.
	cInt := (f.WPullDown+f.WPullUp+f.WPassGate)*f.CJPerM +
		(f.WPullDown+f.WPullUp)*f.CGatePerM
	nl.AddC("q", q, circuit.Ground, cInt)
	nl.AddC("qb", qb, circuit.Ground, cInt)
	// State-selection helpers: bias the bistable DC solution to q=0.
	nl.AddR("init_q", q, circuit.Ground, 1e9)
	nl.AddR("init_qb", qb, vdd, 1e9)

	col.BLSense = blNodes[segs]
	col.BLBSense = blbNodes[segs]
	col.BLFar = blNodes[0]
	col.WL = wl
	col.Q = q
	col.QB = qb
	return col, nil
}

// SimOptions tunes the read simulation.
type SimOptions struct {
	Method spice.Integrator
	// Dt forces the time step (0 = automatic from the estimated td).
	Dt float64
	// TEnd forces the simulation window (0 = automatic).
	TEnd float64
	// Adaptive switches to the step-doubling backward-Euler integrator
	// (spice.TransientAdaptive); Dt is then ignored.
	Adaptive bool
	// LTETol overrides the adaptive integrator's local-truncation-error
	// tolerance in volts (0 = the accuracy-gated default, 50 µV). Only
	// meaningful with Adaptive; loosening it trades td accuracy for
	// fewer steps — the DOE accuracy gate in the tests pins the default.
	LTETol float64
}

// estimateTd gives a coarse first-order read-time estimate used to size
// the simulation window: discharge of the total line capacitance by the
// (half-strength) cell current plus the distributed wire delay.
func (c *Column) estimateTd(cp CellParasitics) float64 {
	f := c.proc.FEOL
	n := float64(c.N)
	ctot := n*(cp.Cbl+CFE(f)) + f.CPre(c.N)
	ieff := 0.5 * c.nmos.Idsat(f.WPassGate, f.Vdd)
	slew := ctot * f.SenseDeltaV / ieff
	wire := n * cp.Rbl * ctot / 2
	return slew + wire
}

// ReadResult reports one simulated read.
type ReadResult struct {
	Td     float64 // time from word-line enable to sense threshold
	TEnd   float64
	Dt     float64
	Result *spice.Result
}

// MeasureTd runs the read transient and extracts td: the time from the
// word-line-enable instant until |Vbl − Vblb| at the sense end reaches
// the sense-amplifier sensitivity. It constructs a fresh engine per call;
// hot loops should hold a ColumnBuilder, whose resident engine is
// re-targeted with spice.Engine.Reset instead.
func (c *Column) MeasureTd(cp CellParasitics, opt SimOptions) (ReadResult, error) {
	eng, err := spice.New(c.Netlist, spice.Options{Method: opt.Method})
	if err != nil {
		return ReadResult{}, err
	}
	return c.measureTdOn(eng, cp, opt)
}

// measureTdOn is MeasureTd on a caller-supplied engine already targeted at
// c.Netlist — the reuse hook behind ColumnBuilder's resident engine. The
// returned ReadResult's waveforms alias the engine's recycled storage.
func (c *Column) measureTdOn(eng *spice.Engine, cp CellParasitics, opt SimOptions) (ReadResult, error) {
	f := c.proc.FEOL
	est := c.estimateTd(cp)
	tEnd := opt.TEnd
	if tEnd == 0 {
		tEnd = 6*est + 50e-12
	}
	dt := opt.Dt
	if dt == 0 {
		dt = tEnd / 6000
		if dt > 0.5e-12 {
			dt = 0.5e-12
		}
	}
	// Seed the bistable cell in the q=0 state (read discharges bl).
	if c.nodeset == nil {
		c.nodeset = make(map[circuit.NodeID]float64, 2)
	}
	clear(c.nodeset)
	c.nodeset[c.Q] = 0
	c.nodeset[c.QB] = f.Vdd
	eng.SetNodeset(c.nodeset)
	probes := append(c.probes[:0], c.BLSense, c.BLBSense, c.BLFar, c.Q, c.QB, c.WL)
	c.probes = probes
	target := f.SenseDeltaV
	stopAt := func(t float64, v func(circuit.NodeID) float64) bool {
		return v(c.BLBSense)-v(c.BLSense) >= 1.5*target
	}
	var (
		res *spice.Result
		err error
	)
	if opt.Adaptive {
		ltetol := opt.LTETol
		if ltetol == 0 {
			ltetol = 50e-6
		}
		res, err = eng.TransientAdaptive(tEnd, spice.AdaptiveOptions{LTETol: ltetol}, probes, stopAt)
	} else {
		res, err = eng.Transient(tEnd, dt, probes, stopAt)
	}
	if err != nil {
		return ReadResult{}, fmt.Errorf("sram: read transient (n=%d): %w", c.N, err)
	}
	bl := res.NodeWave(c.BLSense)
	blb := res.NodeWave(c.BLBSense)
	tCross, err := res.FirstCrossing(func(k int) float64 { return blb[k] - bl[k] }, target, +1)
	if err != nil {
		return ReadResult{}, fmt.Errorf("sram: sense threshold never reached (n=%d, tEnd=%g): %w",
			c.N, tEnd, err)
	}
	// td is referenced to the word-line enable start (1 ps delay).
	td := tCross - 1e-12
	if td < 0 {
		td = tCross
	}
	return ReadResult{Td: td, TEnd: tEnd, Dt: dt, Result: res}, nil
}

// SimulateTd is the one-call convenience used by the examples and kept as
// a thin compatibility wrapper: build the column for process p, option o,
// variation sample s, array size n, and return td in seconds. Callers that
// simulate more than one point should hold a ColumnBuilder (or drive the
// sweep engine in internal/sweep), which caches the nominal extraction and
// reuses netlist storage across trials.
func SimulateTd(p tech.Process, o litho.Option, s litho.Sample, cm extract.CapModel, n int, bopt BuildOptions, sopt SimOptions) (float64, error) {
	return NewColumnBuilder(p, cm).SimulateTd(o, s, n, bopt, sopt)
}

// TdPenaltyPct simulates the nominal and perturbed reads and returns the
// paper's tdp figure: (td/tdnom − 1)·100. Like SimulateTd it is a
// compatibility wrapper over ColumnBuilder.
func TdPenaltyPct(p tech.Process, o litho.Option, s litho.Sample, cm extract.CapModel, n int, bopt BuildOptions, sopt SimOptions) (tdp, td, tdnom float64, err error) {
	return NewColumnBuilder(p, cm).TdPenaltyPct(o, s, n, bopt, sopt)
}

// SenseMargin reports the read-disturb peak on the internal q node during
// a read, a standard SRAM health metric exposed for the examples.
func (c *Column) SenseMargin(res *spice.Result) float64 {
	q := res.NodeWave(c.Q)
	peak := 0.0
	for _, v := range q {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Check that segment lumping conserves totals (used by tests): total
// ladder R and C for the given build options.
func LadderTotals(p tech.Process, n int, cp CellParasitics, opt BuildOptions) (rTot, cTot float64) {
	segs := opt.segments(n)
	cellsPerSeg := float64(n) / float64(segs)
	segR := cp.Rbl * cellsPerSeg
	segC := (cp.Cbl + CFE(p.FEOL)) * cellsPerSeg
	rTot = segR * float64(segs)
	total := 0.0
	for i := 0; i <= segs; i++ {
		share := 1.0
		if i == 0 || i == segs {
			share = 0.5
		}
		if segs == 1 {
			share = 0.5
		}
		total += segC * share
	}
	cTot = total
	return rTot, cTot
}

// Sanity guard referenced by tests: lumping must conserve C within fp
// noise: n·(Cbl+CFE) == Σ node caps.
func ladderCapError(p tech.Process, n int, cp CellParasitics, opt BuildOptions) float64 {
	_, cTot := LadderTotals(p, n, cp, opt)
	want := float64(n) * (cp.Cbl + CFE(p.FEOL))
	return math.Abs(cTot-want) / want
}
