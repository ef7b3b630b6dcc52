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
	"strings"
	"sync"
	"syscall"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/layout"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/report"
	"mpsram/internal/serve"
	"mpsram/internal/sram"
)

// globals are the environment-level flags shared by every workload. The
// struct doubles as the value store for both parse passes: re-registering
// on a second FlagSet uses the current values as defaults, so pass-one
// assignments survive.
type globals struct {
	samples  int
	seed     int64
	process  string
	ol       float64
	n        int
	lumped   bool
	workers  int
	progress bool
	thk      float64
	format   string
	smoke    bool
	list     bool
}

func defaultGlobals() *globals {
	return &globals{samples: 10000, seed: 2015, process: "N10", ol: 8, n: 64, format: "text"}
}

func (g *globals) register(fs *flag.FlagSet) {
	fs.IntVar(&g.samples, "samples", g.samples, "Monte-Carlo sample count (workloads may hint a cheaper default)")
	fs.Int64Var(&g.seed, "seed", g.seed, "Monte-Carlo seed")
	fs.StringVar(&g.process, "process", g.process, "technology preset; run 'mpvar processes' for the registry")
	fs.Float64Var(&g.ol, "ol", g.ol, "LE3 overlay 3-sigma budget in nm")
	fs.IntVar(&g.n, "n", g.n, "array word-line count (workloads with an n parameter)")
	fs.BoolVar(&g.lumped, "lumped", g.lumped, "use the lumped bit-line ablation")
	fs.IntVar(&g.workers, "workers", g.workers, "worker count for Monte-Carlo and SPICE sweeps (0 = all CPUs)")
	fs.BoolVar(&g.progress, "progress", g.progress, "report Monte-Carlo and SPICE sweep progress on stderr")
	fs.Float64Var(&g.thk, "thk", g.thk, "thickness extension 3-sigma in nm (workloads with a thk parameter)")
	fs.StringVar(&g.format, "format", g.format, "output format: text, csv, md or json")
	fs.BoolVar(&g.smoke, "smoke", g.smoke, "tiny-budget smoke run: 4 samples plus each workload's smoke parameter overrides")
	fs.BoolVar(&g.list, "list", g.list, "print the registered workload names, one per line, and exit")
}

// bindParams defines one flag on fs per schema parameter of wl. A flag
// already on the set — a global or shard spec flag — feeds the parameter
// of the same name instead of a duplicate binding: every standard
// flag.Value implements flag.Getter, and the registry's coercion accepts
// its native type. Once fs is parsed, the returned function collects the
// parameters named in seen. Only explicitly set parameters enter the
// spec; Normalize fills the schema defaults, so the run key matches
// every other spelling of the same run (CLI, serve, shard, reduce).
func bindParams(fs *flag.FlagSet, wl exp.Workload) func(seen map[string]bool) exp.Params {
	bound := map[string]func() any{}
	for _, ps := range wl.Params {
		if f := fs.Lookup(ps.Name); f != nil {
			bound[ps.Name] = func() any { return f.Value.(flag.Getter).Get() }
			continue
		}
		switch ps.Kind {
		case exp.IntParam:
			p := fs.Int(ps.Name, ps.Default.(int), ps.Help)
			bound[ps.Name] = func() any { return *p }
		case exp.FloatParam:
			p := fs.Float64(ps.Name, ps.Default.(float64), ps.Help)
			bound[ps.Name] = func() any { return *p }
		case exp.BoolParam:
			p := fs.Bool(ps.Name, ps.Default.(bool), ps.Help)
			bound[ps.Name] = func() any { return *p }
		case exp.StringParam:
			p := fs.String(ps.Name, ps.Default.(string), ps.Help)
			bound[ps.Name] = func() any { return *p }
		}
	}
	return func(seen map[string]bool) exp.Params {
		params := exp.Params{}
		for _, ps := range wl.Params {
			if seen[ps.Name] {
				params[ps.Name] = bound[ps.Name]()
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
	g := defaultGlobals()
	fs1 := flag.NewFlagSet("mpvar", flag.ExitOnError)
	g.register(fs1)
	fs1.Usage = func() { usage(fs1, os.Stderr) }
	_ = fs1.Parse(os.Args[1:])
	if g.list {
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
	}
	if name == "help" {
		if fs1.NArg() < 2 {
			usage(fs1, os.Stdout)
			return
		}
		check(helpWorkload(fs1.Arg(1), os.Stdout))
		return
	}

	seen := map[string]bool{}
	fs1.Visit(func(f *flag.Flag) { seen[f.Name] = true })

	// Registry workloads get a second parse pass over the arguments after
	// the workload name: the global flags again (subcommand style) plus
	// one flag per schema parameter that is not already a global.
	var (
		wl       exp.Workload
		utility  = name == "gds" || name == "deck"
		fs2      = flag.NewFlagSet("mpvar "+name, flag.ExitOnError)
		wlookErr error
	)
	if !utility {
		wl, wlookErr = exp.LookupWorkload(name)
		if wlookErr != nil {
			fmt.Fprintf(os.Stderr, "mpvar: %v\n\nrun 'mpvar' with no arguments for usage\n", wlookErr)
			os.Exit(2)
		}
	}
	g.register(fs2)
	fs2.Usage = func() {
		if utility {
			usage(fs2, os.Stderr)
			return
		}
		_ = helpWorkload(name, os.Stderr)
		fmt.Fprintln(os.Stderr, "\nglobal flags:")
		fs2.SetOutput(os.Stderr)
		fs2.PrintDefaults()
	}
	explicitParams := bindParams(fs2, wl)
	_ = fs2.Parse(fs1.Args()[1:])
	fs2.Visit(func(f *flag.Flag) { seen[f.Name] = true })
	if fs2.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q after workload %s", fs2.Arg(0), name))
	}
	// Globals work in either position, so honor a post-name -list too.
	if g.list {
		for _, n := range exp.WorkloadNames() {
			fmt.Println(n)
		}
		return
	}

	format, err := report.ParseFormat(g.format)
	if err != nil {
		fatal(err)
	}

	// Budget hints: an unset -samples adopts the workload's preferred
	// budget (e.g. SPICE-in-the-loop workloads at 200 draws, not the
	// analytic 10k); -smoke clamps to a tiny budget instead.
	if !seen["samples"] {
		if g.smoke {
			g.samples = 4
		} else if wl.Hints.Samples > 0 {
			g.samples = wl.Hints.Samples
		}
	}

	// Assemble the workload parameters: schema defaults are implicit;
	// explicit flags win; -smoke fills its overrides where nothing was
	// chosen.
	params := explicitParams(seen)
	if g.smoke {
		for k, v := range wl.Hints.Smoke {
			if _, explicit := params[k]; !explicit {
				params[k] = v
			}
		}
	}

	// Ctrl-C cancels a running experiment instead of killing the process
	// mid-write: the Monte-Carlo engine checks the context between trial
	// blocks and the SPICE sweep engine between transients. Once the
	// first signal has canceled the context, unregister so a second
	// Ctrl-C gets default handling as a hard stop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	// Resolve the technology preset first: an unknown -process answers
	// with the registry's valid names, not a bare failure.
	proc, err := core.LookupProcess(g.process)
	if err != nil {
		fatal(err)
	}
	opts := []core.Option{
		core.WithProcess(proc),
		core.WithMC(mc.Config{Samples: g.samples, Seed: g.seed}),
		core.WithBuild(sram.BuildOptions{Lumped: g.lumped}),
		core.WithContext(ctx),
		core.WithWorkers(g.workers),
	}
	// The -ol default (8 nm) equals the N10 preset; only an explicit -ol
	// overrides a derived node's own scaled overlay budget.
	if seen["ol"] || proc.Name == "N10" {
		opts = append(opts, core.WithOverlay(g.ol*1e-9))
	}
	if g.progress {
		opts = append(opts, core.WithProgress(progressPrinter()))
	}
	study, err := core.NewStudy(opts...)
	if err != nil {
		fatal(err)
	}

	// The two non-registry utilities: raw artifact dumps, text only.
	switch name {
	case "gds":
		cell := layout.SRAM6TCell(study.Env.Proc)
		check(cell.WriteGDSText(os.Stdout))
		return
	case "deck":
		p := study.Env.Proc
		nom, err := sram.NominalParasitics(p, study.Env.Cap)
		check(err)
		col, err := sram.BuildColumn(p, g.n, nom, study.Env.Build)
		check(err)
		fmt.Print(col.Netlist.WriteSpice(fmt.Sprintf("sram column n=%d (%s)", g.n, litho.EUV)))
		return
	}

	res, err := study.Run(name, params)
	check(err)
	check(res.Write(os.Stdout, format))
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
