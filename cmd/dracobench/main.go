// Command dracobench regenerates the paper's tables and figures and
// runs the unified benchmark harness (internal/bench).
//
// Paper-experiment mode:
//
//	dracobench                      # run every experiment
//	dracobench -experiment fig2     # run one (fig2..fig17, table1, table3, vatsize, ablation)
//	dracobench -list                # list experiments
//	dracobench -quick               # smaller event counts
//
// Benchmark modes — all share the common knobs -json, -workloads,
// -reps, -warmup, -seed, and all emit the same versioned result schema
// (internal/bench) under -json:
//
//	dracobench -engine all -json out.json           # engine registry throughput
//	dracobench -misssweep                           # filter execution tiers
//	dracobench -progsweep                           # programmable-policy tiers
//	dracobench -loadgen -concurrency 16 -conns 4    # HTTP vs wire service edge
//
// The trajectory harness:
//
//	dracobench -bench-all                  # every mode, full depth -> BENCH_<date>.json
//	dracobench -bench-all -smoke           # every mode, smoke depth
//	dracobench -compare old.json new.json  # diff two runs; exit 1 on hard regressions
//	dracobench -convert results/filterexec.json  # legacy shape -> common schema
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"draco/internal/bench"
	"draco/internal/experiments"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// commonConfig carries the shared benchmark knobs every mode accepts
// uniformly: one flagset, one meaning, one schema.
type commonConfig struct {
	events    int
	reps      int
	warmup    int
	seed      int64
	workloads []*workloads.Workload
	smoke     bool
}

// runner builds the mode's measurement policy, applying the mode's
// default repetition count when -reps was not given.
func (cc commonConfig) runner(defaultReps int) bench.Runner {
	reps := cc.reps
	if reps <= 0 {
		reps = defaultReps
	}
	warmup := cc.warmup
	if warmup < 0 {
		warmup = 1
	}
	return bench.Runner{Warmup: warmup, Reps: reps}
}

// eventsOr returns -events, or the mode's default when unset.
func (cc commonConfig) eventsOr(def int) int {
	if cc.events > 0 {
		return cc.events
	}
	return def
}

// workloadNames lists the selected workloads for the config record.
func (cc commonConfig) workloadNames() []string {
	names := make([]string, len(cc.workloads))
	for i, w := range cc.workloads {
		names[i] = w.Name
	}
	return names
}

// resolveWorkloads parses the -workloads selector: "" uses the mode's
// default, "all" selects every workload, otherwise a comma-separated
// name list.
func resolveWorkloads(selector string, def []string) ([]*workloads.Workload, error) {
	names := def
	switch selector {
	case "":
	case "all":
		return workloads.All(), nil
	default:
		names = strings.Split(selector, ",")
	}
	if len(names) == 0 {
		return workloads.All(), nil
	}
	var ws []*workloads.Workload
	for _, name := range names {
		name = strings.TrimSpace(name)
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func main() {
	var (
		// Paper-experiment knobs.
		experiment = flag.String("experiment", "", "experiment id to run (empty = all)")
		list       = flag.Bool("list", false, "list experiments and exit")
		quick      = flag.Bool("quick", false, "use small event counts")
		train      = flag.Int("train-events", 0, "override profile-training events")
		nopreload  = flag.Bool("nopreload", false, "disable STB-driven SLB preloading")
		shape      = flag.String("shape", "linear", "seccomp filter shape: linear or tree")
		csvDir     = flag.String("csv", "", "also write each experiment's tables as CSV files into this directory")

		// Common benchmark knobs, accepted uniformly by every mode.
		events  = flag.Int("events", 0, "events per workload trace (0 = mode default; also overrides experiment event counts)")
		seed    = flag.Int64("seed", 1, "trace/simulation seed (all modes)")
		reps    = flag.Int("reps", 0, "timed repetitions per measurement (0 = mode default; all benchmark modes)")
		warmup  = flag.Int("warmup", -1, "untimed warmup passes per measurement (-1 = mode default; all benchmark modes)")
		workls  = flag.String("workloads", "", "comma-separated workload names, or 'all' (default: all; httpd for -engine)")
		jsonOut = flag.String("json", "", "write the mode's results as a common-schema JSON document to this file")

		// Mode selectors and their mode-specific knobs.
		engName   = flag.String("engine", "", "engine-bench mode: replay workloads through this registered engine ('all' = every engine)")
		shards    = flag.Int("shards", 0, "shard count for -engine draco-concurrent (0 = default)")
		routing   = flag.String("routing", "syscall", "shard routing for -engine draco-concurrent: syscall or args")
		misssweep = flag.Bool("misssweep", false, "filter-execution sweep: cold-start traces through a bare filter under the interp, compiled, and bitmap tiers")
		progsweep = flag.Bool("progsweep", false, "programmable-policy sweep: bare filter plain vs constant-extracted and stateful eBPF policies")
		fastpath  = flag.Bool("fastpath", false, "decision-plane benchmark: draco-concurrent with the lock-free fast path on vs off on constant-dominated traffic")
		loadgen   = flag.Bool("loadgen", false, "service-edge load generator: single-check traffic over HTTP JSON vs the binary wire protocol")
		conc      = flag.Int("concurrency", 32, "client worker goroutines for -loadgen")
		conns     = flag.Int("conns", 4, "wire connection-pool size for -loadgen")

		// Harness verbs.
		benchAll = flag.Bool("bench-all", false, "run every benchmark mode and write one trajectory file (default BENCH_<date>.json)")
		smoke    = flag.Bool("smoke", false, "with -bench-all: smoke depth (small traces, fewer reps)")
		compare  = flag.Bool("compare", false, "compare two run files: dracobench -compare old.json new.json; exits 1 on hard regressions")
		noise    = flag.Float64("noise", 0, "with -compare: relative noise band (0 = default 0.15)")
		hard     = flag.Float64("hard", 0, "with -compare: hard-regression threshold (0 = default 0.40)")
		verbose  = flag.Bool("v", false, "with -compare: also list in-band and improved metrics")
		convert  = flag.String("convert", "", "convert a legacy results/*.json document to the common schema (writes -json or stdout)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Usage = usage
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dracobench: %v\n", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "dracobench: %v\n", err)
		os.Exit(1)
	}

	if *convert != "" {
		if err := runConvert(*convert, *jsonOut); err != nil {
			fail(err)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dracobench: -compare needs exactly two run files: dracobench -compare old.json new.json")
			os.Exit(2)
		}
		hardRegressed, err := runCompare(flag.Arg(0), flag.Arg(1), *noise, *hard, *verbose)
		if err != nil {
			fail(err)
		}
		if hardRegressed {
			os.Exit(1)
		}
		return
	}

	// Benchmark modes share the common config.
	newCommon := func(defWorkloads []string) commonConfig {
		ws, err := resolveWorkloads(*workls, defWorkloads)
		if err != nil {
			fail(err)
		}
		return commonConfig{
			events: *events, reps: *reps, warmup: *warmup,
			seed: *seed, workloads: ws, smoke: *smoke,
		}
	}

	// writeRun wraps a single mode's result in a stamped Run document.
	writeRun := func(mode bench.ModeResult, err error) {
		if err != nil {
			fail(err)
		}
		if *jsonOut == "" {
			return
		}
		run := bench.NewRun("custom")
		run.Modes = []bench.ModeResult{mode}
		if err := run.WriteFile(*jsonOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}

	switch {
	case *benchAll:
		if err := runBenchAll(newCommon(nil), *smoke, *jsonOut, *conc, *conns); err != nil {
			fail(err)
		}
		return
	case *loadgen:
		writeRun(loadgenMode(newCommon(nil), *conc, *conns))
		return
	case *misssweep:
		writeRun(missSweepMode(newCommon(nil)))
		return
	case *progsweep:
		writeRun(progSweepMode(newCommon(nil)))
		return
	case *fastpath:
		writeRun(fastpathMode(newCommon(nil), *shards, *routing))
		return
	case *engName != "":
		writeRun(engineBenchMode(newCommon([]string{"httpd"}), *engName, *shards, *routing))
		return
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", r.ID, r.Description)
		}
		return
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *events > 0 {
		opts.Events = *events
	}
	if *train > 0 {
		opts.TrainEvents = *train
	}
	opts.Seed = *seed
	opts.Repeats = 1
	if *reps > 0 {
		opts.Repeats = *reps
	}
	opts.NoPreload = *nopreload
	switch *shape {
	case "linear":
		opts.Shape = seccomp.ShapeLinear
	case "tree":
		opts.Shape = seccomp.ShapeBinaryTree
	default:
		fmt.Fprintf(os.Stderr, "dracobench: unknown shape %q\n", *shape)
		os.Exit(2)
	}

	runners := experiments.Registry()
	if *experiment != "" {
		r, ok := experiments.ByID(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "dracobench: unknown experiment %q (use -list)\n", *experiment)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dracobench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fail(err)
			}
			for i, tbl := range res.Tables {
				name := fmt.Sprintf("%s-%d.csv", r.ID, i)
				if len(res.Tables) == 1 {
					name = r.ID + ".csv"
				}
				path := filepath.Join(*csvDir, strings.ReplaceAll(name, " ", "_"))
				if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
					fail(err)
				}
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}

// usage groups the -h output by concern so the shared knobs are
// documented once, next to the modes that accept them.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `dracobench — paper experiments and the unified benchmark harness

Paper experiments (default when no mode flag is given):
  dracobench [-experiment ID] [-quick] [-csv DIR] [-shape linear|tree] [-nopreload] [-train-events N]

Benchmark modes (pick one):
  -engine NAME|all   engine registry throughput        -shards, -routing
  -misssweep         filter execution tiers (interp/compiled/bitmap)
  -progsweep         programmable-policy tiers
  -fastpath          decision plane on vs off          -shards, -routing
  -loadgen           HTTP JSON vs binary wire edge     -concurrency, -conns

Common knobs, accepted uniformly by every benchmark mode:
  -json FILE         write results on the common schema (internal/bench)
  -workloads LIST    comma-separated workload names, or 'all'
  -reps N            timed repetitions per measurement (median reported)
  -warmup N          untimed warmup passes per measurement
  -events N          events per workload trace
  -seed N            trace seed

Trajectory harness:
  -bench-all [-smoke]          run every mode; writes BENCH_<date>.json
  -compare OLD.json NEW.json   diff two runs [-noise F] [-hard F] [-v]; exit 1 on hard regressions
  -convert LEGACY.json         convert a legacy results/*.json shape [-json FILE]

All flags:
`)
	flag.PrintDefaults()
}

// runCompare loads, diffs, and renders two runs; returns whether the
// new run hard-regressed.
func runCompare(oldPath, newPath string, noise, hard float64, verbose bool) (bool, error) {
	old, err := bench.ReadFile(oldPath)
	if err != nil {
		return false, err
	}
	new, err := bench.ReadFile(newPath)
	if err != nil {
		return false, err
	}
	opts := bench.DefaultCompareOptions()
	if noise > 0 {
		opts.Noise = noise
	}
	if hard > 0 {
		opts.Hard = hard
	}
	c, err := bench.Compare(old, new, opts)
	if err != nil {
		return false, err
	}
	c.Render(os.Stdout, verbose)
	return c.HardRegressed(), nil
}

// runConvert converts a legacy results document to the common schema.
func runConvert(legacyPath, jsonOut string) error {
	run, err := bench.ConvertLegacyFile(legacyPath)
	if err != nil {
		return err
	}
	if jsonOut == "" {
		jsonOut = strings.TrimSuffix(legacyPath, ".json") + ".v1.json"
	}
	if err := run.WriteFile(jsonOut); err != nil {
		return err
	}
	fmt.Printf("converted %s (%s mode, %d metrics) -> %s\n",
		legacyPath, run.Modes[0].Mode, len(run.Modes[0].Metrics), jsonOut)
	return nil
}
