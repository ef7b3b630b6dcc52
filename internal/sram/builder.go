package sram

import (
	"runtime"
	"sync"

	"mpsram/internal/device"
	"mpsram/internal/extract"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

// ColumnBuilder is a column construction and simulation session for one
// process and capacitance model — the reusable path behind the SPICE
// sweep and Monte-Carlo engines. It holds what depends on the process:
// one NMOS/PMOS model card pair shared by every build and the memoized
// nominal per-cell parasitics. What a read needs that does not depend on
// the process — the column netlist scratch and the resident SPICE
// engine, with its compiled topologies, value arrays and Newton and
// waveform buffers — lives in sessions that MeasureTd borrows from a
// process-wide free list for one call. Every read in the process reuses
// those warm sessions, and only the first reads pay for allocating them.
//
// Results are bit-identical to a fresh BuildColumn + Column.MeasureTd per
// read: construction is deterministic, spice.Engine.Reset is
// bit-identical to a fresh engine and the nominal memo is a pure function
// of the inputs, so caching and pooling only remove recomputation, never
// change a float.
//
// MeasureTd and the trial functions are safe for concurrent use, and
// Nominal, NominalTds and Build are not.
type ColumnBuilder struct {
	Proc tech.Process
	Cap  extract.CapModel

	nmos *device.MOS
	pmos *device.MOS

	haveNom bool
	nom     CellParasitics

	// scratch is Build's netlist storage, made on the first Build. The
	// builder owns it because the Column that Build returns aliases it
	// and outlives the call.
	scratch *columnScratch
}

// NewColumnBuilder returns a session for process p and capacitance model
// cm.
func NewColumnBuilder(p tech.Process, cm extract.CapModel) *ColumnBuilder {
	return &ColumnBuilder{
		Proc: p,
		Cap:  cm,
		nmos: device.NewNMOS(p.FEOL),
		pmos: device.NewPMOS(p.FEOL),
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

// Build constructs the column into the builder's reusable netlist
// scratch. The returned Column (and its Netlist) aliases that scratch and
// is valid only until the next Build call on this builder.
func (b *ColumnBuilder) Build(n int, cp CellParasitics, opt BuildOptions) (*Column, error) {
	if b.scratch == nil {
		b.scratch = new(columnScratch)
	}
	return b.scratch.build(b.nmos, b.pmos, b.Proc, n, cp, opt)
}

// MeasureTd builds the column for parasitics cp at size n and runs the
// read transient, returning td in seconds. Both run on a session borrowed
// from the process-wide free list for this call alone, so a warm read
// allocates nothing.
func (b *ColumnBuilder) MeasureTd(n int, cp CellParasitics, bopt BuildOptions, sopt SimOptions) (float64, error) {
	s := acquireSession()
	td, err := s.measureTd(b, n, cp, bopt, sopt)
	// Not deferred: a session a panic left half-written is dropped.
	releaseSession(s)
	return td, err
}

// session is the process-independent half of a read: the column netlist
// scratch and the resident SPICE engine, re-targeted at each rebuilt
// netlist with spice.Engine.Reset.
type session struct {
	sc  columnScratch
	eng *spice.Engine
}

// idleSessions is the free list behind MeasureTd: a mutex-guarded stack
// of at most GOMAXPROCS idle sessions, the most recently used on top. It
// is not a sync.Pool, which may drop any item it holds (under the race
// detector it drops a quarter of its Puts) and would leave a warm read's
// cost to chance.
var idleSessions struct {
	mu   sync.Mutex
	free []*session
}

// acquireSession takes the most recently used idle session, or makes one.
func acquireSession() *session {
	idleSessions.mu.Lock()
	defer idleSessions.mu.Unlock()
	free := idleSessions.free
	if len(free) == 0 {
		return new(session)
	}
	s := free[len(free)-1]
	free[len(free)-1] = nil
	idleSessions.free = free[:len(free)-1]
	return s
}

// releaseSession puts s back on the free list. A full list drops its
// least recently used sessions, so the warmest stay.
func releaseSession(s *session) {
	limit := runtime.GOMAXPROCS(0)
	idleSessions.mu.Lock()
	defer idleSessions.mu.Unlock()
	free := idleSessions.free
	if over := len(free) + 1 - limit; over > 0 {
		n := copy(free, free[over:])
		clear(free[n:])
		free = free[:n]
	}
	idleSessions.free = append(free, s)
}

// measureTd is MeasureTd on this session.
func (s *session) measureTd(b *ColumnBuilder, n int, cp CellParasitics, bopt BuildOptions, sopt SimOptions) (float64, error) {
	col, err := s.sc.build(b.nmos, b.pmos, b.Proc, n, cp, bopt)
	if err != nil {
		return 0, err
	}
	opts := spice.Options{Method: sopt.Method}
	if s.eng == nil {
		s.eng, err = spice.New(col.Netlist, opts)
	} else {
		err = s.eng.Reset(col.Netlist, opts)
	}
	if err != nil {
		return 0, err
	}
	res, err := col.measureTdOn(s.eng, cp, sopt)
	if err != nil {
		return 0, err
	}
	return res.Td, nil
}
