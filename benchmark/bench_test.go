package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

// smokeConfig shrinks a run to 50 ms segments.
func smokeConfig(t *testing.T) config {
	return config{
		seed: 1, events: 12_800, setUps: 1, warmUp: 20 * time.Millisecond,
		segments: 5, segment: 50 * time.Millisecond, tracedSegment: 50 * time.Millisecond,
		probeCalls: 2_000, outDir: t.TempDir(),
	}
}

// contractFile mirrors BENCHMARK.json.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesCatalogue pins BENCHMARK.json to the benchmark's own
// workload and metric catalogue, and both to the contract's limits.
func TestContractMatchesCatalogue(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(c.Workloads) != len(specs) || len(specs) < 2 || len(specs) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d (limit 2..8)", len(c.Workloads), len(specs))
	}
	seen := map[string]bool{}
	for i, s := range specs {
		if w := c.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		if !name.MatchString(s.name) || len(s.why) > 200 || seen[s.name] {
			t.Errorf("workload %q: bad or repeated name, or a why over 200 characters", s.name)
		}
		seen[s.name] = true
	}
	check := func(kind string, got []contractMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(want) < 1 || len(want) > limit {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d (limit %d)", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v in (0, 0.25]", kind, d.Name, d.Bound)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q (%q): bad or repeated name, or bad unit", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, d.Name, d.Better)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, 16, true)
	check("per_layer", c.PerLayer, perLayer, 128, false)
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
}

// TestInputsFollowSeed: the same seed gives the same inputs, another seed
// other inputs.
func TestInputsFollowSeed(t *testing.T) {
	for _, s := range specs {
		sha := func(seed int64) string {
			in, err := buildInputs(s, seed, 6_400)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			h, err := in.sha256Hex()
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			return h
		}
		if a, b := sha(1), sha(1); a != b {
			t.Errorf("%s: seed 1 hashed to %s, then to %s", s.name, a, b)
		}
		if a, b := sha(1), sha(2); a == b {
			t.Errorf("%s: seeds 1 and 2 both hash to %s", s.name, a)
		}
	}
}

// TestSmoke runs every workload untraced and traced at 50 ms segments:
// every catalogued metric is emitted, and no call fails.
func TestSmoke(t *testing.T) {
	host := captureHost()
	for _, s := range specs {
		cfg := smokeConfig(t)
		for _, traced := range []bool{false, true} {
			var rep *report
			var err error
			defs := printedEndToEnd
			if traced {
				defs = perLayer
				rep, err = runTraced(s, cfg, host, io.Discard)
			} else {
				rep, err = runUntraced(s, cfg, io.Discard)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d calls failed", s.name, traced, rep.failed, rep.attempted)
			}
			for _, d := range defs {
				if _, ok := rep.metrics[d.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", s.name, traced, d.Name)
				}
			}
			if !traced && rep.metrics["failed_share"] != 0 {
				t.Errorf("%s: failed_share = %v", s.name, rep.metrics["failed_share"])
			}
		}
		if _, err := os.Stat(cfg.outDir + "/trace-" + s.name + ".json"); err != nil {
			t.Errorf("%s: span file: %v", s.name, err)
		}
	}
}
