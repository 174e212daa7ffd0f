package main

import (
	"fmt"
	"time"

	"draco/internal/bench"
)

// bench-all: run every benchmark mode back to back and write one
// trajectory file on the common schema. Two depths:
//
//	full   (default) each mode at its own defaults — the numbers worth
//	       committing as a BENCH_<date>.json trajectory point
//	-smoke small traces, fewer reps, reduced grids — a few minutes on a
//	       laptop or CI runner, good enough to catch step-function
//	       regressions against a committed baseline
//
// Flags set on the command line (-events, -reps, -workloads, ...) still
// override per-mode defaults at either depth.
//
//	dracobench -bench-all                  # writes BENCH_<date>.json
//	dracobench -bench-all -smoke -json b.json

// smokeDepth shrinks a commonConfig to smoke proportions unless the user
// pinned the knob explicitly.
func smokeDepth(cc commonConfig, conc, conns int) (commonConfig, int, int) {
	if cc.events <= 0 {
		cc.events = 2000
	}
	if cc.reps <= 0 {
		cc.reps = 2
	}
	if conc == 32 { // flag default — shrink for single-core runners
		conc = 8
	}
	if conns == 4 {
		conns = 2
	}
	return cc, conc, conns
}

// runBenchAll runs the five modes and writes the combined run document.
func runBenchAll(cc commonConfig, smoke bool, jsonOut string, conc, conns int) error {
	depth := "full"
	if smoke {
		depth = "smoke"
		cc, conc, conns = smokeDepth(cc, conc, conns)
	}
	cc.smoke = smoke
	run := bench.NewRun(depth)
	if jsonOut == "" {
		jsonOut = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("2006-01-02"))
	}

	steps := []struct {
		name string
		fn   func() (bench.ModeResult, error)
	}{
		{"enginebench", func() (bench.ModeResult, error) {
			return engineBenchMode(cc, "all", 8, "syscall")
		}},
		{"misssweep", func() (bench.ModeResult, error) { return missSweepMode(cc) }},
		{"progsweep", func() (bench.ModeResult, error) { return progSweepMode(cc) }},
		{"fastpath", func() (bench.ModeResult, error) { return fastpathMode(cc, 8, "syscall") }},
		{"loadgen", func() (bench.ModeResult, error) { return loadgenMode(cc, conc, conns) }},
	}
	for i, step := range steps {
		fmt.Printf("\n=== [%d/%d] %s (%s depth) ===\n", i+1, len(steps), step.name, depth)
		start := time.Now()
		mode, err := step.fn()
		if err != nil {
			return fmt.Errorf("bench-all: %s: %w", step.name, err)
		}
		run.Modes = append(run.Modes, mode)
		fmt.Printf("--- %s done in %v (%d metrics)\n", step.name, time.Since(start).Round(time.Millisecond), len(mode.Metrics))
	}

	if err := run.WriteFile(jsonOut); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (run %s, %s depth, git %s)\n", jsonOut, run.RunID, run.Depth, run.GitSHA)
	return nil
}
