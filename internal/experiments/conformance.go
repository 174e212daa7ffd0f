package experiments

import (
	"fmt"

	"draco/internal/kernelmodel"
	"draco/internal/sim"
	"draco/internal/stats"
	"draco/internal/workloads"
)

// Conformance runs the headline measurements and grades them against the
// paper's published numbers: the automated version of EXPERIMENTS.md. Each
// claim has a paper value and an acceptance band; orderings (who wins) are
// graded strictly, magnitudes loosely (this is a calibrated simulator, not
// the authors' testbed).
func Conformance(o Options) (*Result, error) {
	ws := workloads.All()
	bases := make([][]sim.Metrics, len(ws))
	for i, w := range ws {
		var err error
		if bases[i], err = insecureBaselines(o, w); err != nil {
			return nil, err
		}
	}
	type avg struct{ macro, micro float64 }
	measure := func(mode kernelmodel.Mode, kind sim.ProfileKind) (avg, error) {
		var ma, mi []float64
		for i, w := range ws {
			v, err := runAveraged(o, w, bases[i], mode, kind)
			if err != nil {
				return avg{}, err
			}
			if w.Class == workloads.Macro {
				ma = append(ma, v)
			} else {
				mi = append(mi, v)
			}
		}
		return avg{stats.Mean(ma), stats.Mean(mi)}, nil
	}

	docker, err := measure(kernelmodel.ModeSeccomp, sim.ProfileDockerDefault)
	if err != nil {
		return nil, err
	}
	noargs, err := measure(kernelmodel.ModeSeccomp, sim.ProfileNoArgs)
	if err != nil {
		return nil, err
	}
	complete, err := measure(kernelmodel.ModeSeccomp, sim.ProfileComplete)
	if err != nil {
		return nil, err
	}
	twoX, err := measure(kernelmodel.ModeSeccomp, sim.ProfileComplete2x)
	if err != nil {
		return nil, err
	}
	swCo, err := measure(kernelmodel.ModeDracoSW, sim.ProfileComplete)
	if err != nil {
		return nil, err
	}
	sw2x, err := measure(kernelmodel.ModeDracoSW, sim.ProfileComplete2x)
	if err != nil {
		return nil, err
	}
	hwCo, err := measure(kernelmodel.ModeDracoHW, sim.ProfileComplete)
	if err != nil {
		return nil, err
	}
	hw2x, err := measure(kernelmodel.ModeDracoHW, sim.ProfileComplete2x)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Conformance vs paper", "paper", "measured", "band", "verdict")
	pass := 0
	total := 0
	claim := func(name string, paper, measured, tol float64) {
		total++
		verdict := "PASS"
		if measured < paper-tol || measured > paper+tol {
			verdict = "WARN"
		} else {
			pass++
		}
		t.AddRow(name,
			fmt.Sprintf("%.2f", paper),
			fmt.Sprintf("%.3f", measured),
			fmt.Sprintf("±%.2f", tol),
			verdict)
	}
	ordering := func(name string, ok bool) {
		total++
		verdict := "FAIL"
		if ok {
			verdict = "PASS"
			pass++
		}
		t.AddRow(name, "-", "-", "ordering", verdict)
	}

	// Magnitude claims (Figures 2, 11, 12 averages).
	claim("fig2 docker-default macro", 1.05, docker.macro, 0.05)
	claim("fig2 docker-default micro", 1.12, docker.micro, 0.08)
	claim("fig2 syscall-noargs macro", 1.04, noargs.macro, 0.05)
	claim("fig2 syscall-noargs micro", 1.09, noargs.micro, 0.08)
	claim("fig2 syscall-complete macro", 1.14, complete.macro, 0.08)
	claim("fig2 syscall-complete micro", 1.25, complete.micro, 0.10)
	claim("fig2 complete-2x macro", 1.21, twoX.macro, 0.10)
	claim("fig2 complete-2x micro", 1.42, twoX.micro, 0.12)
	claim("fig11 dracoSW complete macro", 1.10, swCo.macro, 0.08)
	claim("fig11 dracoSW complete micro", 1.18, swCo.micro, 0.10)
	claim("fig11 dracoSW 2x macro", 1.10, sw2x.macro, 0.08)
	claim("fig11 dracoSW 2x micro", 1.23, sw2x.micro, 0.15)
	claim("fig12 dracoHW complete macro", 1.01, hwCo.macro, 0.02)
	claim("fig12 dracoHW complete micro", 1.01, hwCo.micro, 0.02)
	claim("fig12 dracoHW 2x macro", 1.01, hw2x.macro, 0.02)
	claim("fig12 dracoHW 2x micro", 1.01, hw2x.micro, 0.02)

	// Ordering claims (who wins).
	ordering("noargs <= docker (macro)", noargs.macro <= docker.macro)
	ordering("docker < complete (macro)", docker.macro < complete.macro)
	ordering("complete < 2x (macro+micro)", complete.macro < twoX.macro && complete.micro < twoX.micro)
	ordering("dracoSW < seccomp on complete", swCo.macro < complete.macro && swCo.micro < complete.micro)
	ordering("dracoSW flat under 2x", sw2x.macro-swCo.macro < 0.02)
	ordering("dracoHW < dracoSW", hwCo.macro < swCo.macro && hwCo.micro < swCo.micro)
	ordering("2x overhead ~2x of complete (macro)",
		twoX.macro-1 > 1.6*(complete.macro-1) && twoX.macro-1 < 2.4*(complete.macro-1))

	// VAT size (§XI-C).
	var sizes []float64
	for _, w := range workloads.All() {
		m, err := sim.Run(w, o.simConfig(kernelmodel.ModeDracoSW, sim.ProfileComplete))
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, float64(m.VATBytes))
	}
	geoKB := stats.Geomean(sizes) / 1024
	total++
	verdict := "WARN"
	if geoKB > 2 && geoKB < 20 {
		verdict = "PASS"
		pass++
	}
	t.AddRow("§XI-C VAT geomean (KB)", "6.98", fmt.Sprintf("%.2f", geoKB), "2-20", verdict)

	return &Result{
		Name:        "Conformance",
		Description: "automated paper-vs-measured grading",
		Tables:      []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("%d/%d claims within band; orderings are strict, magnitudes are simulator-calibrated", pass, total),
		},
	}, nil
}
