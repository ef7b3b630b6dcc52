// Write-operation analysis: an extension beyond the paper's read-time
// study. The same bit-line RC that slows the read also slows the write
// driver's discharge of the bit line, so MP-induced RC variability shifts
// the write time too. MeasureWriteTime drives a write-0 into the far cell
// and reports the cell flip time.
package sram

import (
	"fmt"

	"mpsram/internal/circuit"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

// WriteResult reports one simulated write.
type WriteResult struct {
	// TFlip is the time from word-line enable until the cell's internal
	// nodes cross (q falls below qb on a cell that stored 1).
	TFlip float64
	// TBitline is the time for the driven bit line to fall to 10 % of
	// vdd at the far (cell) end.
	TBitline float64
	Result   *spice.Result
}

// BuildWriteColumn constructs the write experiment: the read column
// topology, but with the precharge off from t=0 and a write driver
// pulling the bit line low while blb is held high. The cell initially
// stores q=1 so the write must flip it.
func BuildWriteColumn(p tech.Process, n int, cp CellParasitics, opt BuildOptions) (*Column, error) {
	col, err := BuildColumn(p, n, cp, opt)
	if err != nil {
		return nil, err
	}
	f := p.FEOL
	nl := col.Netlist
	// Precharge gate held high (off) for the whole run.
	for i := range nl.Vs {
		if nl.Vs[i].Label == "pre" {
			nl.Vs[i].Wave = circuit.DC(f.Vdd)
		}
	}
	// Write driver at the sense end: strong pull-down on bl, hold blb
	// high, through realistic driver resistance.
	drv := nl.Node("wdrv")
	nl.AddV("wdrv", drv, circuit.Ground, circuit.Pulse{
		V0: f.Vdd, V1: 0, Delay: 1e-12, Rise: 2e-12, Width: 1,
	})
	nl.AddR("wdrv_bl", drv, col.BLSense, 300)
	hold := nl.Node("whold")
	nl.AddV("whold", hold, circuit.Ground, circuit.DC(f.Vdd))
	nl.AddR("whold_blb", hold, col.BLBSense, 300)
	// Flip the state-selection helpers: the cell starts at q=1.
	for i := range nl.Rs {
		switch nl.Rs[i].Label {
		case "init_q":
			nl.Rs[i].B = nl.Node("vdd")
		case "init_qb":
			nl.Rs[i].B = circuit.Ground
		}
	}
	return col, nil
}

// MeasureWriteTime runs the write transient on a column built by
// BuildWriteColumn.
func (c *Column) MeasureWriteTime(cp CellParasitics, opt SimOptions) (WriteResult, error) {
	f := c.proc.FEOL
	est := c.estimateTd(cp)
	tEnd := opt.TEnd
	if tEnd == 0 {
		tEnd = float64(6*est) + 100e-12
	}
	dt := opt.Dt
	if dt == 0 {
		dt = tEnd / 6000
		if dt > 0.5e-12 {
			dt = 0.5e-12
		}
	}
	eng, err := spice.New(c.Netlist, spice.Options{Method: opt.Method})
	if err != nil {
		return WriteResult{}, err
	}
	// Cell starts at q=1 (the write must flip it to 0).
	eng.SetNodeset(map[circuit.NodeID]float64{
		c.Q:  f.Vdd,
		c.QB: 0,
	})
	probes := []circuit.NodeID{c.BLSense, c.BLFar, c.Q, c.QB}
	res, err := eng.Transient(tEnd, dt, probes,
		func(t float64, v func(circuit.NodeID) float64) bool {
			return v(c.QB)-v(c.Q) > 0.9*f.Vdd
		})
	if err != nil {
		return WriteResult{}, fmt.Errorf("sram: write transient (n=%d): %w", c.N, err)
	}
	q := res.NodeWave(c.Q)
	qb := res.NodeWave(c.QB)
	tFlip, err := res.FirstCrossing(func(k int) float64 { return q[k] - qb[k] }, 0, -1)
	if err != nil {
		return WriteResult{}, fmt.Errorf("sram: cell never flipped (n=%d): %w", c.N, err)
	}
	far := res.NodeWave(c.BLFar)
	tBl, err := res.FirstCrossing(func(k int) float64 { return far[k] }, 0.1*f.Vdd, -1)
	if err != nil {
		// The run may stop (cell flipped) before the far end fully
		// discharges; report the flip time only.
		tBl = 0
	}
	const wlDelay = 1e-12
	if tFlip > wlDelay {
		tFlip -= wlDelay
	}
	if tBl > wlDelay {
		tBl -= wlDelay
	}
	return WriteResult{TFlip: tFlip, TBitline: tBl, Result: res}, nil
}
