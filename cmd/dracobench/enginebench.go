package main

import (
	"fmt"
	"runtime"
	"testing"

	"draco/internal/bench"
	"draco/internal/engine"
	"draco/internal/profilegen"
	"draco/internal/trace"
)

// Engine-bench mode: replay workload traces through registered check
// engines by name and report steady-state throughput. This is the
// registry-level rerun of the PR-1 shard benchmarks, now emitting the
// common schema via the bench.Runner measurement policy (warm tables,
// median of timed full-trace replays).
//
//	dracobench -engine all -json out.json
//	dracobench -engine draco-concurrent -shards 8

// engineBenchConfig is one (engine, shards, routing) cell.
type engineBenchConfig struct {
	Engine  string
	Shards  int
	Routing string
}

// engineBenchConfigs expands an engine selector ("all" or a registry
// name) into the benchmark grid. fullGrid additionally sweeps
// draco-concurrent across the PR-1 shard/routing grid.
func engineBenchConfigs(selector string, shards int, routing string, fullGrid bool) ([]engineBenchConfig, error) {
	names := []string{selector}
	if selector == "all" {
		names = engine.Names()
	} else if _, ok := engine.Lookup(selector); !ok {
		return nil, fmt.Errorf("unknown engine %q (have %v)", selector, engine.Names())
	}
	var cfgs []engineBenchConfig
	for _, name := range names {
		if name == "draco-concurrent" && selector == "all" && fullGrid {
			for _, rt := range []string{"syscall", "args"} {
				for _, sh := range []int{1, 4, 16} {
					cfgs = append(cfgs, engineBenchConfig{Engine: name, Shards: sh, Routing: rt})
				}
			}
			continue
		}
		cfg := engineBenchConfig{Engine: name}
		if name == "draco-concurrent" {
			cfg.Shards, cfg.Routing = shards, routing
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// replayPass replays the whole trace through the engine once.
func replayPass(e engine.Engine, tr trace.Trace) {
	for _, ev := range tr {
		e.Check(ev.SID, ev.Args)
	}
}

// engineBenchMode measures every config cell on every selected workload
// and returns the mode's common-schema result.
func engineBenchMode(cc commonConfig, selector string, shards int, routing string) (bench.ModeResult, error) {
	events := cc.eventsOr(50_000)
	runner := cc.runner(3)
	cfgs, err := engineBenchConfigs(selector, shards, routing, !cc.smoke)
	if err != nil {
		return bench.ModeResult{}, err
	}

	mode := bench.ModeResult{
		Mode: "enginebench",
		Config: bench.Config{
			Events: events, Reps: runner.Reps, Warmup: runner.Warmup,
			Seed: cc.seed, Workloads: cc.workloadNames(),
			Extra: map[string]string{"selector": selector},
		},
	}

	for _, w := range cc.workloads {
		tr := w.Generate(events, cc.seed)
		p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})

		for _, cfg := range cfgs {
			e, err := engine.New(cfg.Engine, engine.Options{Profile: p, Shards: cfg.Shards, Routing: cfg.Routing})
			if err != nil {
				return bench.ModeResult{}, err
			}
			// Warm the tables so the measured path is the serving
			// steady state, then read the warm-trace hit rate.
			replayPass(e, tr)
			warm := e.Stats()

			cell := bench.CellName(cfg.Engine, e.Describe().Shards, e.Describe().Routing)
			samples := runner.MeasureNsScaled(len(tr), func() { replayPass(e, tr) })
			m := bench.LowerIsBetter(w.Name, cell+"/ns_per_check", "ns/op", len(tr), samples)
			mode.Metrics = append(mode.Metrics, m)

			// Allocation count on the steady-state path (one full replay).
			allocs := testing.AllocsPerRun(1, func() { replayPass(e, tr) }) / float64(len(tr))
			mode.Metrics = append(mode.Metrics,
				bench.Info(w.Name, cell+"/allocs_per_check", "allocs/op", []float64{allocs}))
			if warm.Checks > 0 {
				hit := float64(warm.SPTHits+warm.VATHits) / float64(warm.Checks)
				mode.Metrics = append(mode.Metrics,
					bench.Info(w.Name, cell+"/cache_hit_rate", "ratio", []float64{hit}))
			}

			// Concurrency-safe engines also get the parallel replay the
			// PR-1 shard benchmarks ran: every worker walks the trace
			// from its own offset.
			var parallelNs float64
			if info, _ := engine.Lookup(cfg.Engine); info.Concurrent {
				psamples := runner.MeasureNs(len(tr), func() { parallelReplay(e, tr) })
				pm := bench.LowerIsBetter(w.Name, cell+"/parallel_ns_per_check", "ns/op", len(tr), psamples)
				mode.Metrics = append(mode.Metrics, pm)
				parallelNs = pm.Summary.Median
			}
			e.Close()

			line := fmt.Sprintf("%-14s %-34s %8.1f ns/check (%d allocs)", w.Name, cell, m.Summary.Median, int(allocs+0.5))
			if parallelNs > 0 {
				line += fmt.Sprintf(", parallel %8.1f ns/check", parallelNs)
			}
			fmt.Println(line)
		}
	}
	return mode, nil
}

// parallelReplay fans one full trace replay out over GOMAXPROCS
// workers, each walking from its own offset; total work equals one
// serial replay so the same per-op normalization applies.
func parallelReplay(e engine.Engine, tr trace.Trace) {
	workers := maxParallelWorkers()
	per := (len(tr) + workers - 1) / workers
	done := make(chan struct{}, workers)
	for g := 0; g < workers; g++ {
		lo := g * per
		hi := lo + per
		if hi > len(tr) {
			hi = len(tr)
		}
		go func(lo, hi, offset int) {
			n := hi - lo
			for i := 0; i < n; i++ {
				ev := tr[(offset+i*7919)%len(tr)]
				e.Check(ev.SID, ev.Args)
			}
			done <- struct{}{}
		}(lo, hi, g*7919)
	}
	for g := 0; g < workers; g++ {
		<-done
	}
}

func maxParallelWorkers() int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return p
	}
	return 2 // still exercise the concurrent path on single-core hosts
}
