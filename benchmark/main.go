// Command benchmark is the repository's contract benchmark: six
// closed-loop syscall-check workloads, their end-to-end metrics, and a
// traced run that yields per-layer metrics and a latency budget. See
// README.md beside this file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload in this process (default: all, one process each)")
		seed      = flag.Int64("seed", 1, "input seed; seed 2 is held out and never used for tuning")
		seconds   = flag.Int("seconds", 10, "seconds one run measures")
		traceFlag = flag.String("trace", "0", "1: traced run (per-layer metrics, spans in out/); 0: end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice and compare the two within the bounds")
	)
	flag.Parse()
	traced := *traceFlag == "1" || *traceFlag == "true"
	if !traced && *traceFlag != "0" && *traceFlag != "false" {
		fatal(fmt.Errorf("-trace %q: want 0 or 1", *traceFlag))
	}
	if *seconds < 1 || flag.NArg() > 0 {
		fatal(fmt.Errorf("usage: benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-selfcheck]"))
	}
	var err error
	switch {
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, traced)
	case *selfcheck:
		err = selfCheck(*seed, *seconds)
	default:
		_, err = runSuite(*seed, *seconds, traced)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one workload in this process and prints every metric by
// name with its unit, then the contract's result line.
func runOne(name string, seed int64, seconds int, traced bool) error {
	s, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	host := captureHost()
	fmt.Printf("%s: host: %s\n", s.name, host)
	cfg := defaultConfig(seed, seconds)
	var rep *report
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		rep, err = runTraced(s, cfg, host, os.Stdout)
	} else {
		rep, err = runUntraced(s, cfg, os.Stdout)
	}
	if err != nil {
		return err
	}
	shown := defs
	if !traced {
		shown = printedEndToEnd
	}
	for _, d := range shown {
		note := ""
		if slices.Contains(rep.absent, d.Name) {
			note = "  (absent)"
		}
		fmt.Printf("%s: %-36s = %16.4f %s%s\n", s.name, d.Name, rep.metrics[d.Name], d.Unit, note)
	}
	line, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   pick(defs, rep.metrics),
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// suite is one pass over every workload: workload -> metric -> value.
type suite map[string]map[string]float64

// runSuite runs every workload, each in an OS process of its own so that
// peak memory and collector state are per workload.
func runSuite(seed int64, seconds int, traced bool) (suite, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := suite{}
	for _, s := range specs {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", s.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out[s.name], err = parseRun(&buf)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return out, nil
}

// parseRun reads a run's human-readable metric lines ("workload: name =
// value unit"), which carry failed_share and allocs_per_check beside the
// contract's metrics.
func parseRun(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 4 && f[2] == "=" {
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				m[f[1]] = v
			}
		}
	}
	if len(m) == 0 {
		return nil, errors.New("run printed no metric")
	}
	return m, sc.Err()
}

// selfCheck runs the untraced suite twice back to back and holds the two
// against each other: a relative bound per contract metric, absolute for
// the metrics that read 0, none for the tail.
func selfCheck(seed int64, seconds int) error {
	var runs [2]suite
	for i := range runs {
		fmt.Printf("selfcheck: pass %d of %d\n", i+1, len(runs))
		var err error
		if runs[i], err = runSuite(seed, seconds, false); err != nil {
			return err
		}
	}
	fmt.Printf("selfcheck: host: %s\n", captureHost())
	fmt.Printf("selfcheck: %-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	failed := 0
	for _, s := range specs {
		for _, d := range printedEndToEnd {
			a, b := runs[0][s.name][d.Name], runs[1][s.name][d.Name]
			// The contract's metrics differ relatively; the two that read 0
			// on a healthy run differ absolutely.
			diff, shown := math.Abs(ratio(b-a, a)), fmt.Sprintf("%+7.2f%%", 100*ratio(b-a, a))
			if slices.Contains(extraEndToEnd, d) {
				diff, shown = math.Abs(b-a), fmt.Sprintf("%+8.4f", b-a)
			}
			verdict, bound := "PASS", fmt.Sprintf("%.2f", d.Bound)
			switch {
			case slices.Contains(unboundedEndToEnd, d):
				verdict, bound = "-", "none"
			case diff > d.Bound:
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("selfcheck: %-16s %-18s %14.4f %14.4f %9s %7s  %s\n", s.name, d.Name, a, b, shown, bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs differ by more than their bound", failed)
	}
	fmt.Println("selfcheck: every workload x metric pair agrees within its bound")
	return nil
}
