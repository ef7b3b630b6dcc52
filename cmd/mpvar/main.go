// Command mpvar regenerates the tables and figures of "Impact of
// Interconnect Multiple-Patterning Variability on SRAMs" (DATE 2015) from
// the mpsram library, plus the extension workloads that grew around them.
//
// Usage:
//
//	mpvar [flags] <workload> [workload flags]
//
// The workload list, the usage text and the per-workload flags are all
// generated from the experiment registry (internal/exp): registering a
// workload adds its command, its flags and its smoke coverage with no
// edits here. Run `mpvar workloads` for the machine-readable listing,
// `mpvar help <workload>` for one workload's parameters, and pass
// `-format json|csv|md` for structured output on any workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/layout"
	"mpsram/internal/litho"
	"mpsram/internal/report"
	"mpsram/internal/serve"
	"mpsram/internal/sram"
)

// runFlags are the flags both run verbs (`mpvar <workload>` and `mpvar
// shard`) parse into a core.RunSpec: the run identity (-samples, -seed,
// -process), the parameter spellings -n, -ol and -thk, and the execution
// knobs that never change results (-workers, -progress). The struct
// doubles as the value store for both parse passes: re-registering on a
// second FlagSet uses the current values as defaults, so pass-one
// assignments survive. set names the flags the command line set
// explicitly, over both passes; parse fills it.
type runFlags struct {
	samples  int
	seed     int64
	process  string
	n        int
	ol, thk  float64
	workers  int
	progress bool
	set      map[string]bool
}

func defaultRunFlags() *runFlags {
	return &runFlags{seed: core.DefaultSeed, process: "N10", n: 64, ol: 8}
}

func (f *runFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.samples, "samples", f.samples, "Monte-Carlo sample count (0 = the workload's preferred budget)")
	fs.Int64Var(&f.seed, "seed", f.seed, "Monte-Carlo seed")
	fs.StringVar(&f.process, "process", f.process, "technology preset; run 'mpvar processes' for the registry")
	fs.IntVar(&f.n, "n", f.n, "array word-line count (workloads with an n parameter)")
	fs.Float64Var(&f.ol, "ol", f.ol, "LE3 overlay 3-sigma budget in nm (workloads with an ol parameter)")
	fs.Float64Var(&f.thk, "thk", f.thk, "thickness extension 3-sigma in nm (workloads with a thk parameter)")
	fs.IntVar(&f.workers, "workers", f.workers, "worker count for Monte-Carlo and SPICE sweeps (0 = all CPUs; never changes results)")
	fs.BoolVar(&f.progress, "progress", f.progress, "report Monte-Carlo and SPICE sweep progress on stderr")
}

// execOptions translates the execution knobs (not part of the run
// identity) into core options.
func (f *runFlags) execOptions(ctx context.Context) []core.Option {
	opts := []core.Option{core.WithContext(ctx), core.WithWorkers(f.workers)}
	if f.progress {
		opts = append(opts, core.WithProgress(progressPrinter()))
	}
	return opts
}

// parse is the second parse pass both run verbs share. fs holds the
// verb's flags, f's among them, and has parsed the command line up to
// the workload name; wl is that workload (the zero Workload for the gds
// and deck utilities). The arguments after the name are parsed on a
// second set carrying f's flags again (subcommand style), the verb's own
// post-name flags (more, if non-nil) and one flag per schema parameter.
// The result is the spec the whole command line names; Normalize, run
// by every consumer, validates it.
func (f *runFlags) parse(fs *flag.FlagSet, wl exp.Workload, more func(*flag.FlagSet)) core.RunSpec {
	name := fs.Arg(0)
	fs2 := flag.NewFlagSet(fs.Name()+" "+name, flag.ExitOnError)
	f.register(fs2)
	if more != nil {
		more(fs2)
	}
	fs2.Usage = func() {
		_ = helpWorkload(name, os.Stderr)
		fmt.Fprintln(os.Stderr, "\nflags:")
		fs2.SetOutput(os.Stderr)
		fs2.PrintDefaults()
	}
	explicitParams := bindParams(fs2, wl)
	_ = fs2.Parse(fs.Args()[1:])
	if fs2.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q after workload %s", fs2.Arg(0), name))
	}
	f.set = map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { f.set[fl.Name] = true })
	fs2.Visit(func(fl *flag.Flag) { f.set[fl.Name] = true })
	return core.RunSpec{
		Workload: name, Params: explicitParams(f.set), Process: f.process,
		Seed: f.seed, Samples: f.samples,
	}
}

// directFlags binds the flags only the direct verb has (-format, -smoke
// and -list) on a flag set; like runFlags, the current values are the
// defaults, so both parse passes share them.
func directFlags(format *string, smoke, list *bool) func(*flag.FlagSet) {
	return func(fs *flag.FlagSet) {
		fs.StringVar(format, "format", *format, "output format: text, csv, md or json")
		fs.BoolVar(smoke, "smoke", *smoke, "tiny-budget smoke run: 4 samples plus each workload's smoke parameter overrides")
		fs.BoolVar(list, "list", *list, "print the registered workload names, one per line, and exit")
	}
}

// bindParams defines one flag on fs per schema parameter of wl. A flag
// already on the set (a run flag such as -n) feeds the parameter of the
// same name instead of a duplicate binding: every standard flag.Value
// implements flag.Getter, and the registry's coercion accepts its native
// type. Once fs is parsed, the returned function collects the parameters
// named in seen. Only explicitly set parameters enter the spec;
// Normalize fills the schema defaults, so the run key matches every
// other spelling of the same run (CLI, serve, shard, reduce). The run
// flags that spell a parameter (-n, -ol, -thk) enter whenever they are
// set, so Normalize refuses one that wl's schema lacks instead of the
// run ignoring it.
func bindParams(fs *flag.FlagSet, wl exp.Workload) func(seen map[string]bool) exp.Params {
	names := []string{"n", "ol", "thk"}
	for _, ps := range wl.Params {
		names = append(names, ps.Name)
		if fs.Lookup(ps.Name) != nil {
			continue
		}
		switch ps.Kind {
		case exp.IntParam:
			fs.Int(ps.Name, ps.Default.(int), ps.Help)
		case exp.FloatParam:
			fs.Float64(ps.Name, ps.Default.(float64), ps.Help)
		case exp.BoolParam:
			fs.Bool(ps.Name, ps.Default.(bool), ps.Help)
		case exp.StringParam:
			fs.String(ps.Name, ps.Default.(string), ps.Help)
		}
	}
	return func(seen map[string]bool) exp.Params {
		params := exp.Params{}
		for _, name := range names {
			if seen[name] {
				params[name] = fs.Lookup(name).Value.(flag.Getter).Get()
			}
		}
		return params
	}
}

// usage renders the generated help: the workload listing straight from
// the registry plus the static utility commands and the global flags.
func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, `usage: mpvar [flags] <workload> [workload flags]

workloads (from the registry; 'mpvar help <workload>' shows its parameters):
`)
	for _, wl := range exp.Workloads() {
		fmt.Fprintf(w, "  %-12s %s\n", wl.Name, wl.Summary)
	}
	fmt.Fprintf(w, "\nutilities:\n")
	for _, u := range []string{"gds", "deck", "serve", "shard", "reduce", "help"} {
		fmt.Fprintf(w, "  %-12s %s\n", u, utilities[u])
	}
	fmt.Fprintf(w, "\nflags:\n")
	fs.SetOutput(w)
	fs.PrintDefaults()
}

// utilities are the two non-registry artifact dumps (plus help itself),
// kept out of the workload registry because they emit raw formats, not
// tabular results.
var utilities = map[string]string{
	"gds":    "dump the 6T cell layout as GDS text (text only; honors -process)",
	"deck":   "dump a column SPICE deck (text only; honors -process and -n)",
	"serve":  "serve the registry over HTTP/JSON with a deterministic result cache (see API.md)",
	"shard":  "run one shard of a workload's Monte-Carlo blocks to a resumable artifact (see EXPERIMENTS.md)",
	"reduce": "merge a run's shard artifacts into the exact single-process result",
	"help":   "describe a workload and its parameters",
}

// helpWorkload renders one workload's self-description; the static
// utilities listed in the usage text are describable too.
func helpWorkload(name string, w io.Writer) error {
	if desc, ok := utilities[name]; ok {
		fmt.Fprintf(w, "mpvar %s — %s\n", name, desc)
		return nil
	}
	wl, err := exp.LookupWorkload(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mpvar %s — %s\n", wl.Name, wl.Summary)
	if len(wl.Params) == 0 {
		fmt.Fprintf(w, "  (no workload parameters; global flags apply)\n")
	}
	for _, ps := range wl.Params {
		fmt.Fprintf(w, "  -%s %v (default %v)\n      %s\n", ps.Name, ps.Kind, ps.Default, ps.Help)
	}
	if wl.Hints.Samples > 0 {
		fmt.Fprintf(w, "  preferred -samples budget: %d (applied when -samples is not set)\n", wl.Hints.Samples)
	}
	if len(wl.Hints.Smoke) > 0 {
		fmt.Fprintf(w, "  -smoke overrides: %v\n", wl.Hints.Smoke)
	}
	if wl.InAll {
		fmt.Fprintf(w, "  part of the 'all' paper-order plan\n")
	}
	return nil
}

func main() {
	f := defaultRunFlags()
	format, smoke, list := "text", false, false
	direct := directFlags(&format, &smoke, &list)
	fs1 := flag.NewFlagSet("mpvar", flag.ExitOnError)
	f.register(fs1)
	direct(fs1)
	fs1.Usage = func() { usage(fs1, os.Stderr) }
	_ = fs1.Parse(os.Args[1:])
	if list {
		for _, name := range exp.WorkloadNames() {
			fmt.Println(name)
		}
		return
	}
	if fs1.NArg() < 1 {
		usage(fs1, os.Stderr)
		os.Exit(2)
	}
	name := fs1.Arg(0)
	switch name {
	case "serve":
		serveMain(fs1.Args()[1:])
		return
	case "shard":
		shardMain(fs1.Args()[1:])
		return
	case "reduce":
		reduceMain(fs1.Args()[1:])
		return
	case "help":
		if fs1.NArg() < 2 {
			usage(fs1, os.Stdout)
			return
		}
		check(helpWorkload(fs1.Arg(1), os.Stdout))
		return
	}

	var wl exp.Workload
	if name != "gds" && name != "deck" {
		var err error
		if wl, err = exp.LookupWorkload(name); err != nil {
			fmt.Fprintf(os.Stderr, "mpvar: %v\n\nrun 'mpvar' with no arguments for usage\n", err)
			os.Exit(2)
		}
	}
	spec := f.parse(fs1, wl, direct)
	// Globals work in either position, so honor a post-name -list too.
	if list {
		for _, n := range exp.WorkloadNames() {
			fmt.Println(n)
		}
		return
	}
	out, err := report.ParseFormat(format)
	check(err)

	// The two non-registry utilities: raw artifact dumps, text only.
	if name == "gds" || name == "deck" {
		check(utilityFlags(name, f.set))
		proc, err := core.LookupProcess(f.process)
		check(err)
		if name == "gds" {
			check(layout.SRAM6TCell(proc).WriteGDSText(os.Stdout))
			return
		}
		study, err := core.NewStudy(core.WithProcess(proc))
		check(err)
		nom, err := sram.NominalParasitics(proc, study.Env.Cap)
		check(err)
		col, err := sram.BuildColumn(proc, f.n, nom, study.Env.Build)
		check(err)
		fmt.Print(col.Netlist.WriteSpice(fmt.Sprintf("sram column n=%d (%s)", f.n, litho.EUV)))
		return
	}

	// -smoke: a 4-draw budget unless -samples chose one, and the
	// workload's smoke overrides wherever no parameter was chosen.
	if smoke {
		if spec.Samples == 0 {
			spec.Samples = 4
		}
		for k, v := range wl.Hints.Smoke {
			if _, explicit := spec.Params[k]; !explicit {
				spec.Params[k] = v
			}
		}
	}
	ctx, stop := interruptContext()
	defer stop()
	res, err := spec.Run(f.execOptions(ctx)...)
	check(err)
	check(res.Write(os.Stdout, out))
}

// utilityFlags refuses the explicitly set flags a gds or deck dump would
// ignore: both honor only -process, and deck also -n.
func utilityFlags(name string, set map[string]bool) error {
	honored := []string{"-process"}
	if name == "deck" {
		honored = append(honored, "-n")
	}
	var ignored []string
	for fl := range set {
		if !slices.Contains(honored, "-"+fl) {
			ignored = append(ignored, "-"+fl)
		}
	}
	if len(ignored) == 0 {
		return nil
	}
	sort.Strings(ignored)
	return fmt.Errorf("%s honors only %s; refusing %s", name,
		strings.Join(honored, " and "), strings.Join(ignored, ", "))
}

// serveMain runs `mpvar serve`: the HTTP/JSON API over the workload
// registry with the content-addressed result cache (internal/serve; wire
// contract in API.md). The bound address is printed to stdout — with
// `-addr :0` that is how scripts learn the picked port — and
// SIGTERM/SIGINT trigger a graceful drain: no new runs, every queued and
// in-flight run finishes, then the process exits 0.
func serveMain(args []string) {
	fs := flag.NewFlagSet("mpvar serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8177", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 2, "executor pool size: runs executing concurrently")
	maxQueue := fs.Int("max-queue", 32, "queued runs beyond the pool before submissions shed with 429")
	cacheSize := fs.Int("cache-size", 256, "content-addressed result cache bound (rendered bodies, LRU)")
	runTimeout := fs.Duration("run-timeout", 15*time.Minute, "per-run wall-clock budget")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget before in-flight runs are canceled")
	engineWorkers := fs.Int("engine-workers", 0, "worker count inside each run's engines (0 = all CPUs; never changes results)")
	fanout := fs.Int("fanout", 0, "shard count heavy runs fan out into, capped at the stream's 256-trial block count (0 = the pool size, 1 = disabled; never changes response bytes)")
	fanoutMinSamples := fs.Int("fanout-min-samples", 0, "estimated-cost threshold (samples x workload cost hint) above which a run fans out (0 = 50000)")
	fanoutExec := fs.String("fanout-exec", "goroutine", "shard execution vehicle: goroutine (in-process) or remote (peer mpvar serve workers; needs -peers)")
	fanoutDir := fs.String("fanout-dir", "", "scratch dir for shard artifacts and drain checkpoints (default <tmp>/mpvar-fanout; reuse it across restarts to resume)")
	peers := fs.String("peers", "", "comma-separated peer mpvar serve workers (host:port or URLs) for -fanout-exec=remote")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mpvar serve [flags]\n\nserve the workload registry over HTTP/JSON (endpoints in API.md)\n\nflags:\n")
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q after serve", fs.Arg(0)))
	}
	if *fanoutExec != "goroutine" && *fanoutExec != "remote" {
		fatal(fmt.Errorf("unknown -fanout-exec %q (goroutine or remote)", *fanoutExec))
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if *fanoutExec == "remote" && len(peerList) == 0 {
		fatal(fmt.Errorf("-fanout-exec=remote needs at least one -peers worker"))
	}
	if len(peerList) > 0 && *fanoutExec != "remote" {
		fatal(fmt.Errorf("-peers only applies with -fanout-exec=remote"))
	}
	srv := serve.New(serve.Config{
		Workers:          *workers,
		MaxQueue:         *maxQueue,
		CacheSize:        *cacheSize,
		RunTimeout:       *runTimeout,
		DrainTimeout:     *drainTimeout,
		EngineWorkers:    *engineWorkers,
		Fanout:           *fanout,
		FanoutMinSamples: *fanoutMinSamples,
		FanoutExec:       *fanoutExec,
		Peers:            peerList,
		FanoutDir:        *fanoutDir,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := srv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Printf("mpvar serve: listening on http://%s\n", a)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "mpvar serve: drained cleanly")
}

// progressPrinter returns a concurrency-safe progress callback shared by
// the Monte-Carlo and SPICE sweep engines that rewrites one stderr line
// per whole-percent step.
func progressPrinter() func(done, total int) {
	var mu sync.Mutex
	lastDone, lastPct := 0, -1
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		// Both engines serialize calls with strictly increasing done, so
		// any non-increase means a new stream started (e.g. the next
		// Table IV row, or a Monte-Carlo following a SPICE sweep).
		if done <= lastDone {
			lastPct = -1
		}
		lastDone = done
		pct := done * 100 / total
		if pct <= lastPct {
			return
		}
		lastPct = pct
		fmt.Fprintf(os.Stderr, "\rprogress: %d/%d (%d%%)", done, total, pct)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpvar:", err)
	os.Exit(1)
}
