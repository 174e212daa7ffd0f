// Command dracobench regenerates the paper's tables and figures.
//
//	dracobench                      # run every experiment
//	dracobench -experiment fig2     # run one (fig2..fig17, table1, table3, vatsize, ablation)
//	dracobench -list                # list experiments
//	dracobench -quick               # smaller event counts
//
// The repository's benchmark is `bash benchmark/run.sh` (BENCHMARK.json);
// the per-layer Go microbenchmarks are the `make bench*` targets.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"draco/internal/experiments"
	"draco/internal/seccomp"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id to run (empty = all)")
		list       = flag.Bool("list", false, "list experiments and exit")
		quick      = flag.Bool("quick", false, "use small event counts")
		train      = flag.Int("train-events", 0, "override profile-training events")
		nopreload  = flag.Bool("nopreload", false, "disable STB-driven SLB preloading")
		shape      = flag.String("shape", "linear", "seccomp filter shape: linear or tree")
		csvDir     = flag.String("csv", "", "also write each experiment's tables as CSV files into this directory")
		events     = flag.Int("events", 0, "override experiment event counts (0 = default)")
		seed       = flag.Int64("seed", 1, "trace/simulation seed")
		reps       = flag.Int("reps", 0, "seeds averaged per experiment (0 = 1)")
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

// usage groups the -h output by concern.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `dracobench — regenerates the paper's tables and figures

  dracobench [-experiment ID] [-quick] [-csv DIR] [-shape linear|tree] [-nopreload]
             [-train-events N] [-events N] [-seed N] [-reps N]

The repository's benchmark is bash benchmark/run.sh; the per-layer
microbenchmarks are the make bench* targets.

All flags:
`)
	flag.PrintDefaults()
}
