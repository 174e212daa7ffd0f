// Package experiments contains one runner per table and figure of the
// paper's evaluation (§IV, §XI, appendix), regenerating each as text tables
// from the simulator. DESIGN.md carries the experiment index; EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"fmt"
	"strings"

	"draco/internal/kernelmodel"
	"draco/internal/seccomp"
	"draco/internal/sim"
	"draco/internal/stats"
	"draco/internal/workloads"
)

// Options parameterizes a harness run.
type Options struct {
	// Events per simulation; TrainEvents for profile generation.
	Events      int
	TrainEvents int
	Seed        int64
	// Costs selects the kernel cost model (Linux 5.3 by default).
	Costs kernelmodel.CostModel
	// NoPreload disables STB-driven SLB preloading (ablation).
	NoPreload bool
	// Shape selects the Seccomp filter layout.
	Shape seccomp.Shape
	// Repeats averages each simulation over this many seeds (>=1) for
	// variance control; 0 behaves as 1.
	Repeats int
}

// DefaultOptions returns the paper-equivalent configuration.
func DefaultOptions() Options {
	return Options{
		Events:      50_000,
		TrainEvents: 150_000,
		Seed:        1,
		Costs:       kernelmodel.Linux53Costs(),
		Shape:       seccomp.ShapeLinear,
	}
}

// QuickOptions returns a configuration small enough for tests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Events = 4_000
	o.TrainEvents = 25_000
	return o
}

// Result is one regenerated table or figure.
type Result struct {
	Name        string
	Description string
	Tables      []*stats.Table
	Notes       []string
}

// String renders the result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.Name, r.Description)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner regenerates one experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(Options) (*Result, error)
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig2", "Seccomp overhead under the four profiles (Linux 5.3)", Fig2},
		{"fig3", "System call frequency, argument sets, and reuse distance", Fig3},
		{"fig11", "Software Draco vs Seccomp", Fig11},
		{"fig12", "Hardware Draco overhead", Fig12},
		{"fig13", "STB and SLB hit rates", Fig13},
		{"fig14", "Arguments per system call distribution", Fig14},
		{"fig15", "Security accounting of application-specific profiles", Fig15},
		{"table1", "Execution-flow distribution (Table I)", Table1},
		{"table3", "Hardware area / time / energy (Table III)", Table3},
		{"fig16", "Seccomp overhead on Linux 3.10 + mitigations (appendix)", Fig16},
		{"fig17", "Software Draco on Linux 3.10 (appendix)", Fig17},
		{"vatsize", "VAT memory consumption (§XI-C)", VATSize},
		{"ablation", "Design-choice ablations (preload, filter shape, SLB sizing, context switches)", Ablations},
		{"multicore", "Four checked cores sharing an L3 (Figure 10 organization)", Multicore},
		{"slbsweep", "SLB capacity sensitivity sweep", SLBSweep},
		{"smt", "SMT partitioned-structure support (§VII-B)", SMT},
		{"lineage", "Checking-mechanism generations incl. tracing monitors (§XII)", Lineage},
		{"runtimes", "Generic container-runtime profiles: Docker vs gVisor vs Firecracker (§II-C)", Runtimes},
		{"workingset", "Per-arg-count SLB working sets vs Table II capacity", WorkingSetExp},
		{"coldstart", "Warm-up transient while Draco's tables populate (§X-C)", ColdStart},
		{"conformance", "Automated paper-vs-measured grading of the headline claims", Conformance},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// --- shared machinery ----------------------------------------------------

type cell struct {
	mode kernelmodel.Mode
	kind sim.ProfileKind
}

func (o Options) simConfig(mode kernelmodel.Mode, kind sim.ProfileKind) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mode = mode
	cfg.Profile = kind
	cfg.Shape = o.Shape
	cfg.Costs = o.Costs
	cfg.Events = o.Events
	cfg.TrainEvents = o.TrainEvents
	cfg.Seed = o.Seed
	cfg.HW.PreloadEnabled = !o.NoPreload
	return cfg
}

// insecureBaselines runs a workload's insecure baseline once per averaged
// seed. sim.Run is deterministic per config (its RNG is seeded from
// cfg.Seed), so every cell of the workload shares these runs.
func insecureBaselines(o Options, w *workloads.Workload) ([]sim.Metrics, error) {
	reps := o.Repeats
	if reps < 1 {
		reps = 1
	}
	base := make([]sim.Metrics, reps)
	for r := range base {
		cfg := o.simConfig(kernelmodel.ModeInsecure, sim.ProfileInsecure)
		cfg.Seed = o.Seed + int64(r)
		var err error
		if base[r], err = sim.Run(w, cfg); err != nil {
			return nil, err
		}
	}
	return base, nil
}

// runAveraged runs one (workload, mode, profile) cell, averaging the
// slowdown against base, the workload's per-seed insecure baselines.
func runAveraged(o Options, w *workloads.Workload, base []sim.Metrics, mode kernelmodel.Mode, kind sim.ProfileKind) (float64, error) {
	var sum float64
	for r, b := range base {
		cfg := o.simConfig(mode, kind)
		cfg.Seed = o.Seed + int64(r)
		m, err := sim.Run(w, cfg)
		if err != nil {
			return 0, err
		}
		sum += m.Slowdown(b)
	}
	return sum / float64(len(base)), nil
}

// slowdownMatrix runs every workload under each (mode, profile) cell and
// returns slowdowns normalized to the per-workload insecure baseline, plus
// macro/micro average rows.
func slowdownMatrix(o Options, title string, columns []string, cells []cell) (*stats.Table, error) {
	t := stats.NewTable(title, columns...)
	macro := make([][]float64, len(cells))
	micro := make([][]float64, len(cells))
	for _, w := range workloads.All() {
		base, err := insecureBaselines(o, w)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(cells))
		for i, c := range cells {
			v, err := runAveraged(o, w, base, c.mode, c.kind)
			if err != nil {
				return nil, err
			}
			row[i] = v
			if w.Class == workloads.Macro {
				macro[i] = append(macro[i], row[i])
			} else {
				micro[i] = append(micro[i], row[i])
			}
		}
		t.AddFloats(w.Name, row...)
	}
	avg := func(label string, groups [][]float64) {
		row := make([]float64, len(groups))
		for i, g := range groups {
			row[i] = stats.Mean(g)
		}
		t.AddFloats(label, row...)
	}
	avg("average-macro", macro)
	avg("average-micro", micro)
	return t, nil
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
