package main

import (
	"fmt"
	"math"

	"draco/internal/bench"
	"draco/internal/concurrent"
	"draco/internal/engine"
	"draco/internal/profilegen"
)

// Fastpath mode: measure the lock-free decision plane against its own
// baseline. Each workload's trace is replayed through two draco-concurrent
// engines that differ only in Options.NoFastPath — identical shards,
// routing, and profile — so the delta is exactly the plane: constant
// syscalls answered from the compiled per-tenant records with no locks,
// no table probes, and no filter execution.
//
// The headline grid runs the ID-only profile (every in-policy syscall is
// plane-constant — the serving pattern the plane is built for, and the
// traffic the paper's single-table-hit fast path targets); at full depth
// the arg-checked complete profile rides along to show the fallthrough
// boundary costs nothing when the plane cannot help.
//
//	dracobench -fastpath -json out.json
//	dracobench -fastpath -workloads httpd,redis -shards 8

// concurrentInner is satisfied by draco-concurrent: its checker's
// FastResolved reports what share of the trace the plane answers.
type concurrentInner interface{ Inner() *concurrent.Checker }

// fastpathMode measures plane-on vs plane-off per workload and reports the
// per-workload speedups plus their geomean — the acceptance gate for the
// fast path.
func fastpathMode(cc commonConfig, shards int, routing string) (bench.ModeResult, error) {
	events := cc.eventsOr(50_000)
	runner := cc.runner(3)
	if shards == 0 {
		shards = 8
	}

	mode := bench.ModeResult{
		Mode: "fastpath",
		Config: bench.Config{
			Events: events, Reps: runner.Reps, Warmup: runner.Warmup,
			Seed: cc.seed, Workloads: cc.workloadNames(),
			Extra: map[string]string{"engine": "draco-concurrent"},
		},
	}

	var speedups []float64
	for _, w := range cc.workloads {
		tr := w.Generate(events, cc.seed)
		genOpts := profilegen.Options{IncludeRuntime: true}

		type cellProfile struct {
			name     string
			headline bool
		}
		cells := []cellProfile{{"id-only", true}}
		if !cc.smoke {
			cells = append(cells, cellProfile{"app-complete", false})
		}
		for _, cp := range cells {
			p := profilegen.NoArgs(w.Name, tr, genOpts)
			if cp.name == "app-complete" {
				p = profilegen.Complete(w.Name, tr, genOpts)
			}

			var medians [2]float64
			var coverage float64
			for i, noFast := range []bool{false, true} {
				e, err := engine.New("draco-concurrent", engine.Options{
					Profile: p, Shards: shards, Routing: routing, NoFastPath: noFast,
				})
				if err != nil {
					return bench.ModeResult{}, err
				}
				// One warm pass: seeds the constant-allow records (their
				// first check is the locked warm-up) and fills the tables,
				// so the measured path is the serving steady state.
				replayPass(e, tr)

				variant := "plane"
				if noFast {
					variant = "noplane"
				}
				cell := fmt.Sprintf("%s/%s/%s",
					bench.CellName("draco-concurrent", shards, routing), cp.name, variant)
				samples := runner.MeasureNsScaled(len(tr), func() { replayPass(e, tr) })
				m := bench.LowerIsBetter(w.Name, cell+"/ns_per_check", "ns/op", len(tr), samples)
				mode.Metrics = append(mode.Metrics, m)
				medians[i] = m.Summary.Median

				psamples := runner.MeasureNs(len(tr), func() { parallelReplay(e, tr) })
				mode.Metrics = append(mode.Metrics,
					bench.LowerIsBetter(w.Name, cell+"/parallel_ns_per_check", "ns/op", len(tr), psamples))

				if !noFast {
					if ci, ok := e.(concurrentInner); ok {
						chk := ci.Inner()
						resolved := 0
						for _, ev := range tr {
							if chk.FastResolved(ev.SID) {
								resolved++
							}
						}
						coverage = float64(resolved) / float64(len(tr))
						mode.Metrics = append(mode.Metrics,
							bench.Info(w.Name, cell+"/plane_coverage", "ratio", []float64{coverage}))
					}
				}
				e.Close()
			}

			speedup := medians[1] / medians[0]
			mode.Metrics = append(mode.Metrics, bench.Info(w.Name,
				fmt.Sprintf("%s/%s/fastpath_speedup",
					bench.CellName("draco-concurrent", shards, routing), cp.name),
				"x", []float64{speedup}))
			if cp.headline {
				speedups = append(speedups, speedup)
			}
			fmt.Printf("%-14s %-14s plane %8.1f ns/check, noplane %8.1f ns/check, speedup %.2fx (coverage %.0f%%)\n",
				w.Name, cp.name, medians[0], medians[1], speedup, coverage*100)
		}
	}

	if len(speedups) > 0 {
		logSum := 0.0
		for _, s := range speedups {
			logSum += math.Log(s)
		}
		geomean := math.Exp(logSum / float64(len(speedups)))
		mode.Metrics = append(mode.Metrics,
			bench.Info("all", "fastpath_speedup_geomean", "x", []float64{geomean}))
		fmt.Printf("fastpath speedup geomean over %d workloads (id-only): %.2fx\n", len(speedups), geomean)
	}
	return mode, nil
}
