package experiments

import (
	"fmt"

	"draco/internal/kernelmodel"
	"draco/internal/seccomp"
	"draco/internal/sim"
	"draco/internal/stats"
	"draco/internal/workloads"
)

// ablationWorkloads is a representative subset: one argument-heavy server,
// one event-loop server, one syscall-dense micro benchmark.
var ablationWorkloads = []string{"elasticsearch", "redis", "sysbench-fio"}

// Ablations quantifies the design choices DESIGN.md calls out: SLB
// preloading, the Seccomp filter shape, unified vs per-arg-count SLB
// sizing, and the context-switch SPT save/restore support.
func Ablations(o Options) (*Result, error) {
	res := &Result{
		Name:        "Ablations",
		Description: "design-choice ablations on elasticsearch / redis / sysbench-fio",
	}

	// 1. SLB preloading on vs off (hardware Draco, complete profile).
	tp := stats.NewTable("Ablation: SLB preloading (hardware Draco, syscall-complete)",
		"preload-on", "preload-off", "check-cycles-ratio")
	// 2. Linear vs binary-tree filter shape (Seccomp mode).
	ts := stats.NewTable("Ablation: filter shape (Seccomp, syscall-complete)",
		"linear", "binary-tree")
	// 3. Per-arg-count SLB subtables (Table II) vs one unified subtable of
	// the same total entry budget.
	tu := stats.NewTable("Ablation: SLB sizing (hardware Draco, syscall-complete)",
		"per-arg-count", "unified", "slb-access-hit")
	// 4. SPT save/restore across context switches vs full invalidation.
	tc := stats.NewTable("Ablation: context-switch SPT save/restore (hardware Draco, syscall-complete)",
		"save-restore", "full-invalidate", "os-invocations")
	// 5. SID-indexed SLB sets (the paper's design) vs hash-indexed sets
	// (future-work variant motivated by the working-set analysis: one
	// syscall's argument sets all compete for a single SID-indexed set).
	th := stats.NewTable("Ablation: SLB set indexing (hardware Draco, syscall-complete)",
		"sid-indexed hit", "hash-indexed hit", "slowdown sid/hash")

	// sim.Run is deterministic per config, so each workload's insecure
	// baseline and its unmodified hardware-Draco run are simulated once
	// and shared by every table; each ablation runs only its variant.
	hwVariant := func(tweak func(*sim.Config)) sim.Config {
		cfg := o.simConfig(kernelmodel.ModeDracoHW, sim.ProfileComplete)
		tweak(&cfg)
		return cfg
	}
	treeCfg := o.simConfig(kernelmodel.ModeSeccomp, sim.ProfileComplete)
	treeCfg.Shape = seccomp.ShapeBinaryTree
	cfgs := []sim.Config{
		o.simConfig(kernelmodel.ModeInsecure, sim.ProfileInsecure),
		o.simConfig(kernelmodel.ModeDracoHW, sim.ProfileComplete),
		hwVariant(func(c *sim.Config) { c.HW.PreloadEnabled = false }),
		o.simConfig(kernelmodel.ModeSeccomp, sim.ProfileComplete),
		treeCfg,
		hwVariant(func(c *sim.Config) {
			// Same 240-entry budget spread evenly: 40 entries per subtable.
			for argc := 1; argc <= 6; argc++ {
				c.HW.SLB[argc] = sim.DefaultConfig().HW.SLB[1]
				c.HW.SLB[argc].Entries = 40
			}
		}),
		hwVariant(func(c *sim.Config) { c.NoSPTSaveRestore = true }),
		hwVariant(func(c *sim.Config) { c.HW.SLBHashIndex = true }),
	}
	runs := make([]sim.Metrics, len(cfgs))
	for _, name := range ablationWorkloads {
		w, _ := workloads.ByName(name)
		for i, cfg := range cfgs {
			var err error
			if runs[i], err = sim.Run(w, cfg); err != nil {
				return nil, err
			}
		}
		base, hw, off, lin, tree, uni, drop, hsh := runs[0], runs[1], runs[2], runs[3], runs[4], runs[5], runs[6], runs[7]
		tp.AddRow(name,
			fmt.Sprintf("%.3f", hw.Slowdown(base)),
			fmt.Sprintf("%.3f", off.Slowdown(base)),
			fmt.Sprintf("%.2fx", float64(off.CheckCycles)/float64(hw.CheckCycles)))
		ts.AddFloats(name, lin.Slowdown(base), tree.Slowdown(base))
		tu.AddRow(name,
			fmt.Sprintf("%.3f", hw.Slowdown(base)),
			fmt.Sprintf("%.3f", uni.Slowdown(base)),
			fmt.Sprintf("%s vs %s", pct(hw.HW.SLBAccessHitRate()), pct(uni.HW.SLBAccessHitRate())))
		tc.AddRow(name,
			fmt.Sprintf("%.3f", hw.Slowdown(base)),
			fmt.Sprintf("%.3f", drop.Slowdown(base)),
			fmt.Sprintf("%d vs %d", hw.HW.OSInvocations, drop.HW.OSInvocations))
		th.AddRow(name,
			pct(hw.HW.SLBAccessHitRate()),
			pct(hsh.HW.SLBAccessHitRate()),
			fmt.Sprintf("%.3f/%.3f", hw.Slowdown(base), hsh.Slowdown(base)))
	}
	res.Tables = append(res.Tables, tp, ts, tu, tc, th)
	res.Notes = append(res.Notes,
		"the binary tree (libseccomp proposal, §XII) reduces the syscall-number search but not the argument-set scans, so argument-heavy filters stay expensive",
		"hash-indexed SLB sets relieve per-syscall set conflicts (e.g. redis ~86%->~96% access hit) at the cost of a second candidate set probe")
	return res, nil
}
