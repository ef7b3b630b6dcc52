// The `mpvar shard` and `mpvar reduce` verbs: distributed + resumable
// Monte-Carlo over the workload registry. `shard` executes one contiguous
// slice of a run's trial blocks and writes a partial-aggregate artifact;
// `reduce` re-merges a complete artifact set in block order and renders
// the workload result — byte-identical to the single-process run. Both
// route through core.RunSpec, so every registered workload shards with no
// per-workload code, and the artifact carries the run key that keeps
// stale shards from reducing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/mc"
	"mpsram/internal/report"
)

// interruptContext is the shared Ctrl-C handling: the first signal
// cancels the context (the engines stop between blocks and the shard
// runner persists its checkpoint), a second one is a hard stop.
func interruptContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// shardMain runs `mpvar shard`: one shard of one run, to one artifact.
func shardMain(args []string) {
	f := defaultRunFlags()
	fs := flag.NewFlagSet("mpvar shard", flag.ExitOnError)
	index := fs.Int("index", 0, "this shard's index, 0-based")
	of := fs.Int("of", 1, "total shard count the run is split into")
	out := fs.String("o", "", "artifact output path (default <workload>.shard<index>-of<of>)")
	checkpoint := fs.Duration("checkpoint", 0, "persist a resumable checkpoint at most this often (0 = only on exit)")
	resume := fs.Bool("resume", false, "continue from an existing checkpoint at the output path")
	f.register(fs)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: mpvar shard -index I -of N [flags] <workload> [workload flags]

execute shard I of a run split into N contiguous block ranges and write a
partial-aggregate artifact; 'mpvar reduce' merges the complete set into
the exact single-process result. Interrupted runs persist their progress:
rerun with -resume to continue. See EXPERIMENTS.md.

flags:
`)
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() < 1 {
		fs.Usage()
		os.Exit(2)
	}
	wl, err := exp.LookupWorkload(fs.Arg(0))
	check(err)
	spec := f.parse(fs, wl, nil)
	path := *out
	if path == "" {
		path = core.ShardArtifactName(wl.Name, *index, *of)
	}

	ctx, stop := interruptContext()
	defer stop()
	err = core.RunShard(spec, mc.ShardSpec{Index: *index, Count: *of}, path,
		core.ShardRunOptions{CheckpointEvery: *checkpoint, Resume: *resume},
		f.execOptions(ctx)...)
	if err != nil {
		// On cancellation the checkpoint has already been persisted —
		// say so, because "rerun with -resume" is the whole point.
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "mpvar shard: checkpoint saved to %s; rerun with -resume to continue\n", path)
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mpvar shard: wrote %s\n", path)
}

// reduceMain runs `mpvar reduce`: merge a complete artifact set and
// render the result.
func reduceMain(args []string) {
	fs := flag.NewFlagSet("mpvar reduce", flag.ExitOnError)
	formatFlag := fs.String("format", "text", "output format: text, csv, md or json")
	workers := fs.Int("workers", 0, "worker count for the non-Monte-Carlo stages a workload re-runs (never changes results)")
	progress := fs.Bool("progress", false, "report progress on stderr")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: mpvar reduce [flags] <artifact>...

merge one run's complete shard artifacts (every index of the recorded
shard count, any order) and render the workload result — byte-identical
to running the workload single-process. The artifacts carry the full run
identity; stale or mismatched shards are refused.

flags:
`)
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() < 1 {
		fs.Usage()
		os.Exit(2)
	}
	format, err := report.ParseFormat(*formatFlag)
	check(err)

	ctx, stop := interruptContext()
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := []core.Option{core.WithContext(ctx), core.WithWorkers(*workers)}
	if *progress {
		opts = append(opts, core.WithProgress(progressPrinter()))
	}
	res, err := core.Reduce(fs.Args(), opts...)
	check(err)
	check(res.Write(os.Stdout, format))
}
