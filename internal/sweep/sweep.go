// Package sweep is the sharded SPICE sweep engine behind the paper's
// simulation-driven results (Fig. 4, Table II, Table III).
//
// A sweep runs a fixed job set on one process (Env.Proc): the nominal
// read at every requested array size and, when asked, every patterning
// option's worst-case read at every size. Nominal geometry does not
// depend on the option, so one nominal transient per size serves every
// option and every consumer: Fig. 4's td_nom column, Table II's
// simulation column and the tdp denominators of Table III. The
// cross-node studies (nodes, table4xp, mcspicenodes) are Monte-Carlo
// workloads and do not go through this engine.
//
// The jobs execute on a worker pool whose workers pull jobs off a shared
// cursor and hold no state of their own. The worst-case corner searches
// and one sram.ColumnBuilder, holding the nominal extraction, are made
// once, up front, and shared read-only by all workers; every read
// borrows a warm netlist scratch and resident engine from sram's
// process-wide session free list, so workers and successive sweeps stop
// paying a cold start. The context cancels the sweep between jobs;
// progress callbacks are serialized and strictly increasing. Every job is
// an independent, deterministic simulation written to its own result
// slot, so a sweep's results are bit-identical for any worker count — and
// bit-identical to simulating each read serially on a fresh column and
// engine.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/sram"
	"mpsram/internal/tech"
)

// job is one transient read: option o's worst case at size n, or the
// nominal read at n when wc is false.
type job struct {
	o  litho.Option
	wc bool
	n  int
}

func (j job) String() string {
	if !j.wc {
		return fmt.Sprintf("nominal n=%d", j.n)
	}
	return fmt.Sprintf("%v worst-case n=%d", j.o, j.n)
}

// jobList returns a sweep's jobs in run order: sizes largest first and,
// at each size, every option's worst case (when worstCase is set) in
// litho.Options order before the nominal, so the expensive transients
// start before the pool drains and the tail stays short.
func jobList(sizes []int, worstCase bool) []job {
	ns := slices.Clone(sizes)
	slices.Sort(ns)
	slices.Reverse(ns)
	js := make([]job, 0, len(ns)*(1+len(litho.Options)))
	for _, n := range ns {
		if worstCase {
			for _, o := range litho.Options {
				js = append(js, job{o: o, wc: true, n: n})
			}
		}
		js = append(js, job{n: n})
	}
	return js
}

// Env bundles the simulation environment of a sweep.
type Env struct {
	Proc  tech.Process
	Cap   extract.CapModel
	Build sram.BuildOptions
	Sim   sram.SimOptions
}

// Config tunes the execution of a sweep.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS). Results are
	// bit-identical for any value.
	Workers int
	// Progress, if non-nil, is called as jobs complete with the number
	// of finished transients and the total. Calls are serialized
	// and done is strictly increasing, so the callback needs no locking.
	Progress func(done, total int)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is an executed sweep: every simulated read time, which the
// figure and table drivers consume as views.
type Result struct {
	jobs []job
	tds  []float64 // tds[i] is the read time of jobs[i]
	wc   map[litho.Option]extract.WorstCaseResult
	nom  sram.CellParasitics
}

func (r *Result) td(j job) (float64, bool) {
	i := slices.Index(r.jobs, j)
	if i < 0 {
		return 0, false
	}
	return r.tds[i], true
}

// Td returns the simulated worst-case read time of option o at size n, if
// the sweep ran the worst cases at n.
func (r *Result) Td(o litho.Option, n int) (float64, bool) {
	return r.td(job{o: o, wc: true, n: n})
}

// TdNom returns the nominal read time at size n, if the sweep ran n.
func (r *Result) TdNom(n int) (float64, bool) {
	return r.td(job{n: n})
}

// TdpPct returns the paper's worst-case read-time penalty
// (td/tdnom − 1)·100 for option o at size n; the sweep must have run the
// worst cases at n.
func (r *Result) TdpPct(o litho.Option, n int) (float64, bool) {
	td, ok1 := r.Td(o, n)
	nom, ok2 := r.TdNom(n)
	if !ok1 || !ok2 || nom <= 0 {
		return 0, false
	}
	return (td/nom - 1) * 100, true
}

// WorstCase returns the corner-search result the sweep resolved for
// option o (present for every option when the sweep ran the worst
// cases).
func (r *Result) WorstCase(o litho.Option) (extract.WorstCaseResult, bool) {
	wc, ok := r.wc[o]
	return wc, ok
}

// Nominal returns the nominal per-cell parasitics of the sweep's process.
func (r *Result) Nominal() sram.CellParasitics { return r.nom }

// Jobs returns the number of transients the sweep ran.
func (r *Result) Jobs() int { return len(r.jobs) }

// Run simulates the nominal read at every size in sizes and, when
// worstCase is set, every option's worst-case read at every size. The
// shared inputs — one ColumnBuilder, holding the nominal parasitics, and
// the corner searches — are resolved once before the pool starts; every
// worker then reads through the shared builder on pooled sessions.
func Run(ctx context.Context, env Env, sizes []int, worstCase bool, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if env.Cap == nil {
		return nil, fmt.Errorf("sweep: nil capacitance model")
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("sweep: no array sizes")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: canceled before start: %w", err)
	}

	// One builder shared by every worker: its nominal memo is filled
	// here, before the pool starts, and MeasureTd is safe for concurrent
	// use.
	b := sram.NewColumnBuilder(env.Proc, env.Cap)
	nom, err := b.Nominal()
	if err != nil {
		return nil, fmt.Errorf("sweep: nominal extraction (%s): %w", env.Proc.Name, err)
	}
	jobs := jobList(sizes, worstCase)
	res := &Result{jobs: jobs, tds: make([]float64, len(jobs)), nom: nom}
	if worstCase {
		res.wc = make(map[litho.Option]extract.WorstCaseResult, len(litho.Options))
		for _, o := range litho.Options {
			wc, err := extract.WorstCase(env.Proc, o, env.Cap)
			if err != nil {
				return nil, fmt.Errorf("sweep: worst case %s %v: %w", env.Proc.Name, o, err)
			}
			res.wc[o] = wc
		}
	}
	errs := make([]error, len(jobs))
	// A failed job cancels the pool so the sweep fails fast instead of
	// simulating the remaining transients (matching the serial path's
	// first-error return).
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	nw := cfg.workers()
	if nw > len(jobs) {
		nw = len(jobs)
	}
	var (
		next atomic.Int64
		done atomic.Int64
		wg   sync.WaitGroup

		// Progress calls are serialized and gated on a high-water mark
		// so the callback observes strictly increasing done values even
		// when workers finish jobs out of order.
		progressMu sync.Mutex
		progressHW int
	)
	report := func(d int) {
		progressMu.Lock()
		if d > progressHW {
			progressHW = d
			cfg.Progress(d, len(jobs))
		}
		progressMu.Unlock()
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if runCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				cp := nom
				if j.wc {
					cp = nom.Scale(res.wc[j.o].Ratios)
				}
				td, err := b.MeasureTd(j.n, cp, env.Build, env.Sim)
				if err != nil {
					errs[i] = fmt.Errorf("sweep: %v: %w", j, err)
					cancelRun()
				} else {
					res.tds[i] = td
				}
				d := done.Add(1)
				if cfg.Progress != nil {
					report(int(d))
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: canceled after %d of %d transients: %w",
			done.Load(), len(jobs), err)
	}
	// The first recorded error in job order is surfaced (later jobs may
	// have been skipped by the fail-fast cancellation).
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
