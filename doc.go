// Package mpsram is a from-scratch Go reproduction of
//
//	I. Karageorgos et al., "Impact of Interconnect Multiple-Patterning
//	Variability on SRAMs", DATE 2015, pp. 609–612.
//
// The implementation lives under internal/: technology description
// (tech) — a process registry whose N7- and N5-class presets are derived
// from the calibrated N10 node by a validated shrink (tech.Derive), so
// the process is a first-class sweep axis — patterning engines (litho),
// parasitic extraction (extract) with
// a finite-difference field-solver reference (field), a nodal SPICE engine
// (circuit, device, sparse, spice), the SRAM column builder with its
// reusable build/simulate sessions (sram), the sharded SPICE sweep engine
// that parallelizes the simulation-driven tables (sweep),
// the paper's analytical read-time model (analytic), the streaming
// multi-observable Monte-Carlo engine and its statistics — including P²
// quantile sketches for collection-free runs (mc, stats), layout
// generation (layout), the per-table/figure experiment drivers (exp) and
// the public facade (core).
//
// The two execution engines share one design: callers name the work (the
// array sizes a sweep reads, with or without every option's worst case;
// a Monte-Carlo sample budget), the engine spreads it across a worker
// pool, and deterministic aggregation makes every result bit-identical
// for any worker count. The workers share one read-only builder per sweep
// or one trial function per stream and keep nothing of their own but
// reusable scratch, so any worker can run any job or trial. Fig. 4,
// Table II and Table III read one sweep: one nominal transient per size,
// shared by every option, and one worst case per option and size (16
// transients instead of the 52 a serial reproduction issues). Fig. 5 and
// Table IV are views over shared Monte-Carlo streams: Table IV is the
// one-size view of the extended surface, whose one stream per option and
// overlay feeds every array size.
//
// A sweep runs on one process. The process axis is a Monte-Carlo
// axis: streams key on (process, option, …), and the exp layer's
// cross-node workloads are Monte-Carlo workloads — exp.NodesAt, the
// Table-IV-style σ comparison across N10/N7/N5 (`mpvar nodes`),
// per-process extended Table IV surfaces (`table4xp`) and SPICE-in-the-
// loop σ per node (`mcspicenodes`). N10 results are bit-identical to the
// single-node engine they grew out of. Every trial reseeds its PRNG from
// (seed, trial index). There is one sample stream, math/rand's legacy
// lagged-Fibonacci one, and every golden number is drawn from it. The
// engine draws it bit for bit through a source whose Seed is O(1): it
// derives the 607 seeded words lazily, as draws read them, so a reseed
// plus one normal draw costs ~20 ns where math/rand's Seed took ~13 µs.
//
// The two engines also compose: mc.SpiceTdpAcrossSizes hosts a full read
// transient inside every Monte-Carlo trial (SPICE-in-the-loop), through
// one trial function built on the caller's sram.ColumnBuilder and shared
// by every worker of the stream. Each read borrows a session — a column
// netlist scratch and a resident spice.Engine re-targeted through
// Engine.Reset — from a process-wide free list in sram, so the matrix
// values, Newton scratch and waveform storage are allocated once per
// concurrently running read, not once per trial, worker or stream, and
// Reset is bit-identical to a fresh engine (fuzzed in FuzzNetlistReset).
// The engine compiles each circuit topology once: at Reset it
// fingerprints the netlist's terminal lists and, on a miss in its small
// topology cache, runs sparse.Analyze on the stamp pattern — fill-in
// under the natural order, a value slot for every stamp, and a schedule
// of the numeric work in dependency-level order, so that the column's
// independent chains (the bl and blb ladders, the ground rail, the
// cell's dense q and qb rows) interleave. Every trial, and every array
// size with the same column shape, reuses that symbolic LU; a Newton
// iteration is a copy of the base values, the MOSFET slot adds and
// Symbolic.Solve, a numeric refactorization that repeats sparse.Solver's
// arithmetic operation for operation, so bit for bit (fuzzed in
// FuzzCompiledLU), without allocating. The solver, the engine, the
// device model, the column (sram), the technology model (tech), the
// extraction (extract), the statistics (stats) and the experiment
// drivers (exp) write every contractible x*y ± z as float64(x*y) ± z, so
// an arm64 build, whose compiler would otherwise fuse it into one
// rounding, computes the same bits (make fused-ops). A read transient
// ends on the step where td's crossing is recorded: the first step whose
// sense differential reaches the threshold from below (or, failing that,
// the first at 1.5× it), so no step runs past the one td is measured
// from. A warm read transient allocates nothing, on the fixed-step and
// the adaptive integrator alike. Numeric drift across refactors is
// pinned by golden CSVs under internal/exp/testdata/golden (regenerate
// with go test ./internal/exp -run Golden -update).
//
// Experiments are addressed through the workload registry (internal/exp):
// each experiment registers a Workload descriptor — name, summary, typed
// parameter schema with defaults, budget hints — plus a uniform
// Run(Env, Params) returning a Result whose typed rows feed one
// rendering contract, so csv, markdown and json encoding live once in
// internal/report instead of per table. A report.Table holds each row's
// typed values once, tagged in one byte store per table, so building a
// table boxes no cell on the heap (a cell is a string, a number, a bool
// or nil; any other kind panics), and each encoder appends the whole
// table into one buffer; the paper-style text is a function on the
// Result that only a text rendering calls, so a run rendered as JSON
// (serve, the shard reducer, bench) formats no text at all. core.Study.Run dispatches by
// name, Study.Workloads lists the registry, and the "all" workload is a
// plan over the workloads marked for the paper-order report. The mpvar
// CLI generates its usage, per-workload flags and smoke coverage from
// the registry; registering a workload (one file with an init block — see
// internal/exp/mcspicex.go for the template) adds its command, flags,
// json output and CI smoke with no edits elsewhere. Study.Run is the one
// experiment entry point; a caller wanting typed rows type-asserts
// Result.Data. Both CLI run verbs, `mpvar <workload>` and `mpvar shard`,
// parse their command line into a core.RunSpec and run it like serve and
// the shard reducer do, so every CLI body is the one its run id names.
//
// SPICE-in-the-loop draws are priced down by a paired estimator
// (stats.ControlVariate, mc.RunVectorPaired): each trial measures tdp
// twice on the same deviates — the full read transient and the paper's
// closed-form formula — and a streaming paired-moment accumulator
// (Welford moments on both observables plus their co-moment, merged
// block-deterministically like every other accumulator, fuzzed in
// FuzzControlVariate) regresses the expensive observable on the cheap
// one. The corrected estimate ȳ − β̂(x̄ − μX) replaces the control's
// sampling noise with its exact reference moments from a large analytic
// stream, cutting the variance by 1/(1 − ρ̂²); with ρ̂ ≈ 0.99 measured
// across the DOE, tens of paired draws buy the statistical power of
// thousands of plain ones (BenchmarkSpiceMCCV pins σ-per-CPU-second).
// β̂ is trustworthy exactly when the regression is: it needs enough
// paired draws for cov/var to stabilize (the reported ρ̂ and the
// variance-reduction factor are the diagnostics — a VR barely above 1
// means the correction is noise), a control that is genuinely computed
// from the same deviates as the primary, and reference moments from a
// stream matching the control's true distribution; degenerate inputs
// (n < 2, a flat control) collapse β̂ to 0 and the estimator to the
// plain mean. The estimator changes no sampling: the SPICE stream is
// bitwise identical to the unpaired path, so cv is an estimator mode,
// not a new experiment, and it is part of the run's cache identity.
// Orthogonally, sram.SimOptions.Adaptive swaps the fixed-step transient
// for an LTE-controlled step-doubling integrator (5.7–7.7× fewer steps
// on nominal reads and at least 5.5× on the DOE gate's draws, both
// integrators ending a read on td's crossing step; gated against
// fixed-step across the full DOE to 0.5% on td and 1% on
// σ; sram.SimOptions.LTETol loosens it at your own risk — the gate test
// demonstrates 20 mV tolerance tripping it).
//
// The registry has a network face (internal/serve, `mpvar serve`): an
// HTTP/JSON service whose four endpoints — workload listing with typed
// schemas, schema-validated run submission, result/status fetch, and an
// SSE progress stream riding the engines' serialized callbacks — are
// generated from the same Workload descriptors as the CLI, so the wire
// surface cannot drift from the in-process one. Its result cache leans
// on the repo's central invariant: every run is bit-deterministic in
// (workload, params, seed, samples, process, PRNG stream, engine
// version), so that tuple's canonical SHA-256 (core.RunSpec.Key — after
// normalization: schema defaults filled, process names case-folded,
// zero seed/samples resolved to the paper seed and the workload's
// budget hint) is simultaneously the run id, the single-flight identity
// that coalesces identical concurrent submissions into one execution,
// and the address in a bounded LRU of rendered result bodies. Equal
// keys imply byte-identical responses — cache disposition and timing
// travel in X-Mpvar-* headers, never in the body — and worker counts
// stay out of the key because determinism is independent of them.
// Heavy-traffic control is a bounded executor pool over a depth-limited
// queue (submissions beyond it shed with 429), per-run wall-clock
// timeouts on top of the registry's sample-budget hints, and a SIGTERM
// drain that refuses new work while every queued and in-flight run
// finishes. core.EngineVersion is part of the key: bump it when a
// numerics change regenerates the goldens, and every stale cache entry
// retires at once. API.md documents the wire contract.
//
// The Monte-Carlo engine's block scheduler (internal/mc/sched.go) is the
// seam distributed execution grows from. Trials aggregate into fixed
// 256-trial blocks; workers pull block indices from an atomic cursor and
// fill each block's record in place, at its fixed slot in arrays the
// stream allocates once, and a frontier emits the finished slots strictly
// in block order — which makes the contiguous emitted prefix the engine's
// partial-progress invariant: a canceled run reports exactly the trials
// of that prefix, torn in-flight blocks are never counted, so a resumed
// run re-executes precisely the blocks at or after the frontier and
// nothing is double-counted. Because float folds are not associative,
// partial aggregates are serialized per block (versioned big-endian
// codecs for Welford/P²/ControlVariate in stats/codec.go, exact-round-trip
// fuzzed in Fuzz*Codec): a reducer replays the same left-fold the
// single-process run performs, bit for bit. On top of that sit
// mc.ShardSpec and mc.ShardRun, the one capture every stream runs on:
// it executes the stream's blocks of one contiguous block range past
// its recorded frontier and keeps their records. These are not a second
// engine: every stream runs through one path (runStream in
// internal/mc/sched.go). A direct run is a fresh capture of shard 0 of
// 1, kept in memory and folded on the spot; a shard's capture becomes
// its artifact and hands the workload an empty result; a resumed shard
// starts from its checkpoint's records; and the reducer's capture
// (mc.NewReplay) is shard 0 of 1 decoded from a complete shard set,
// stream by stream across its artifacts, with every stream recorded, so
// it executes nothing and folds the recorded blocks. Each collected value
// is held once: the fold of a single-observable stream compacts the
// stream's own value array in place, and stats.Summarize sorts that
// array in place to sort.Float64s's bits without allocating (a radix
// sort, stats.sortFloat64s, fuzzed in FuzzSummarizeSort). An analytic
// trial calls the extraction's closed forms directly, and each spacing
// power (s/h)^−1.34 has math.Pow's bits (extract.couplingPow, fuzzed in
// FuzzCouplingPow). Above them sit core.RunShard/Reduce, which wrap the
// capture in a self-identifying artifact file, streamed to and from disk:
// a JSON header carrying the full normalized RunSpec plus its run key,
// then the mc payload.
// Reduce recomputes the key from the header, so artifacts from an older
// EngineVersion or a drifted schema refuse instead of folding stale
// blocks. Checkpoints are the same artifact marked incomplete, written
// atomically; `mpvar shard -index I -of N` / `mpvar reduce` surface all
// of it over the registry — every workload shards, resumes and reduces
// byte-identically to its single-process run with zero per-workload
// code (CI proves both by cmp: a 3-shard reduce and a SIGINT-resume
// against the unsharded output).
//
// The serve layer closes the loop with a fan-out executor
// (internal/serve/fanout.go): a submission whose estimated cost
// (normalized samples × the workload's Hints.Cost weight) crosses a
// threshold is dispatched as N concurrent shard executions — goroutines
// by default — and reduced through the same exact left-fold replay, so
// the response body is byte-identical to direct execution and lands in
// the same cache entry: fan-out is pure execution detail, invisible in
// the run key (the X-Mpvar-Fanout header is the only trace). The whole
// fan-out occupies one executor slot; per-shard frontiers aggregate into
// one monotone SSE progress stream; failed shards re-dispatch from their
// persisted checkpoint; and a graceful drain cancels only fan-out runs,
// leaving every shard's frontier checkpointed in -fanout-dir so a
// restarted server pointed at the same directory resumes instead of
// recomputing (CI proves the bytes, the drain checkpoints and the
// restart-resume over the real binary).
//
// The other execution vehicle crosses processes and machines
// (internal/remote, -fanout-exec=remote): every `mpvar serve` process
// also mounts the worker side of a shard fabric — POST /v1/shards
// accepts a normalized RunSpec + ShardSpec (plus an optional checkpoint
// to resume), executes it through the same core.RunShard in a bounded
// pool, and streams progress frames, periodic checkpoint frames and
// finally the complete artifact back, validating the embedded run key on
// both ends so a version-drifted peer refuses before any bytes fold. The
// coordinator side is a health-checked peer pool: each shard dispatches
// to the live, least-loaded peer (draining or engine-drifted peers are
// excluded by their own /v1/healthz), under a single watchdog covering
// dispatch and mid-stream stalls. The failure ladder trades only time,
// never correctness: a dead peer is marked down and the shard
// re-dispatches to another worker resuming from the last shipped
// checkpoint frame; a fleet with no live peers falls back to in-process
// execution; and a coordinator drain leaves the shipped checkpoints in
// -fanout-dir, where a restarted coordinator resumes them like any local
// fan-out. The reduce stays the exact left-fold, so remote bodies are
// byte-identical to direct execution and share its cache entry (CI
// proves it over real processes and sockets, including a worker killed
// mid-run).
//
// The benchmark harness in bench_test.go regenerates every table and
// figure of the paper's evaluation section; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record.
package mpsram
