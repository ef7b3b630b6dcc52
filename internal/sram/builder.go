package sram

import (
	"fmt"

	"mpsram/internal/circuit"
	"mpsram/internal/device"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

// ColumnBuilder is a per-worker column construction and simulation
// session — the reusable path behind the SPICE sweep engine. The one-shot
// SimulateTd/TdPenaltyPct path re-extracts the nominal parasitics,
// re-instantiates the device cards and reallocates the whole netlist for
// every trial; a ColumnBuilder amortizes all three across however many
// (sample, size) points a sweep visits: it caches the nominal per-cell
// parasitics and the extracted variability ratios per (option, sample),
// shares one NMOS/PMOS model card pair across builds, and rebuilds every
// column into one reusable netlist.
//
// Results are bit-identical to the one-shot path: construction is
// deterministic and the cached values are pure functions of the inputs, so
// caching only removes recomputation, never changes a float.
//
// A ColumnBuilder is not safe for concurrent use; give each worker its
// own.
type ColumnBuilder struct {
	Proc tech.Process
	Cap  extract.CapModel

	nmos *device.MOS
	pmos *device.MOS

	haveNom bool
	nom     CellParasitics
	ratios  map[ratioKey]extract.Ratios

	// scratch is the reused netlist and build storage; the Column
	// returned by Build aliases it and stays valid only until the next
	// Build call.
	scratch *columnScratch

	// eng is the resident SPICE engine, re-targeted with
	// spice.Engine.Reset on every MeasureTd so the compiled topology, the
	// matrix values, the Newton scratch and the waveform storage survive
	// across trials.
	eng *spice.Engine
}

type ratioKey struct {
	Option litho.Option
	Sample litho.Sample
}

// NewColumnBuilder returns a session for process p and capacitance model
// cm.
func NewColumnBuilder(p tech.Process, cm extract.CapModel) *ColumnBuilder {
	return &ColumnBuilder{
		Proc:   p,
		Cap:    cm,
		nmos:   device.NewNMOS(p.FEOL),
		pmos:   device.NewPMOS(p.FEOL),
		ratios: make(map[ratioKey]extract.Ratios),
	}
}

// Nominal returns the nominal per-cell parasitics, extracting them on the
// first call and serving the cached value afterwards.
func (b *ColumnBuilder) Nominal() (CellParasitics, error) {
	if !b.haveNom {
		nom, err := NominalParasitics(b.Proc, b.Cap)
		if err != nil {
			return CellParasitics{}, err
		}
		b.nom, b.haveNom = nom, true
	}
	return b.nom, nil
}

// SetNominal seeds the nominal-parasitics cache, letting a sweep
// coordinator extract once and share the value across per-worker builders.
func (b *ColumnBuilder) SetNominal(nom CellParasitics) {
	b.nom, b.haveNom = nom, true
}

// Ratios returns the variability ratios for (o, s), memoized per session.
func (b *ColumnBuilder) Ratios(o litho.Option, s litho.Sample) (extract.Ratios, error) {
	k := ratioKey{Option: o, Sample: s}
	if r, ok := b.ratios[k]; ok {
		return r, nil
	}
	r, err := extract.VarRatios(b.Proc, o, s, b.Cap)
	if err != nil {
		return extract.Ratios{}, err
	}
	b.ratios[k] = r
	return r, nil
}

// Build constructs the column into the session's reusable netlist scratch.
// The returned Column (and its Netlist) aliases that scratch and is valid
// only until the next Build call on this session.
func (b *ColumnBuilder) Build(n int, cp CellParasitics, opt BuildOptions) (*Column, error) {
	if b.scratch == nil {
		b.scratch = &columnScratch{nl: circuit.New()}
	} else {
		b.scratch.nl.Reset()
	}
	return b.scratch.build(b.nmos, b.pmos, b.Proc, n, cp, opt)
}

// MeasureTd builds the column for parasitics cp at size n and runs the
// read transient on the session's resident engine, returning td in
// seconds. The first call constructs the engine; later calls re-target it
// with spice.Engine.Reset, which reuses every internal allocation and is
// bit-identical to a fresh engine.
func (b *ColumnBuilder) MeasureTd(n int, cp CellParasitics, bopt BuildOptions, sopt SimOptions) (float64, error) {
	col, err := b.Build(n, cp, bopt)
	if err != nil {
		return 0, err
	}
	opts := spice.Options{Method: sopt.Method}
	if b.eng == nil {
		b.eng, err = spice.New(col.Netlist, opts)
	} else {
		err = b.eng.Reset(col.Netlist, opts)
	}
	if err != nil {
		return 0, err
	}
	res, err := col.measureTdOn(b.eng, cp, sopt)
	if err != nil {
		return 0, err
	}
	return res.Td, nil
}

// SimulateTd simulates one read for option o under variation sample s at
// array size n — the session equivalent of the package-level SimulateTd.
func (b *ColumnBuilder) SimulateTd(o litho.Option, s litho.Sample, n int, bopt BuildOptions, sopt SimOptions) (float64, error) {
	nom, err := b.Nominal()
	if err != nil {
		return 0, err
	}
	r, err := b.Ratios(o, s)
	if err != nil {
		return 0, err
	}
	return b.MeasureTd(n, nom.Scale(r), bopt, sopt)
}

// TdPenaltyPct simulates the nominal and perturbed reads and returns the
// paper's tdp figure — the session equivalent of the package-level
// TdPenaltyPct.
func (b *ColumnBuilder) TdPenaltyPct(o litho.Option, s litho.Sample, n int, bopt BuildOptions, sopt SimOptions) (tdp, td, tdnom float64, err error) {
	tdnom, err = b.SimulateTd(o, litho.Nominal, n, bopt, sopt)
	if err != nil {
		return 0, 0, 0, err
	}
	td, err = b.SimulateTd(o, s, n, bopt, sopt)
	if err != nil {
		return 0, 0, 0, err
	}
	if tdnom <= 0 {
		return 0, 0, 0, fmt.Errorf("sram: non-positive nominal td %g", tdnom)
	}
	return (td/tdnom - 1) * 100, td, tdnom, nil
}
