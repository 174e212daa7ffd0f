package hwdraco

import (
	"math/rand"
	"testing"

	"draco/internal/core"
	"draco/internal/microarch"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// TestDifferentialHWvsSWvsFilter is the reproduction's strongest
// correctness property: for any workload trace, the hardware engine, the
// software checker, and the plain Seccomp filter must make identical
// allow/deny decisions — caching, preloading, squashes, and context
// switches may only change timing, never outcomes (paper §V: correctness
// follows from filter statelessness).
func TestDifferentialHWvsSWvsFilter(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			// Train a complete profile on one seed, evaluate on another so
			// some events are genuinely denied (unobserved tail sets).
			train := w.Generate(20000, 101)
			eval := w.Generate(4000, 202)

			profile := profilegen.Complete(w.Name, train, profilegen.Options{IncludeRuntime: true})
			filt, err := seccomp.NewFilter(profile, seccomp.ShapeLinear)
			if err != nil {
				t.Fatal(err)
			}

			swChecker := core.NewChecker(profile, seccomp.Chain{filt})
			hwChecker := core.NewChecker(profile, seccomp.Chain{filt})
			eng := NewEngine(DefaultConfig(), hwChecker, microarch.DefaultHierarchy(), microarch.DefaultTLB())

			rng := rand.New(rand.NewSource(7))
			denied := 0
			for i, e := range eval {
				// Random adversarial events: squashes and context switches
				// interleaved with the trace.
				if rng.Intn(50) == 0 {
					eng.Squash()
				}
				if rng.Intn(200) == 0 {
					eng.ContextSwitch(rng.Intn(2) == 0)
				}
				d := seccomp.Data{Nr: int32(e.SID), Arch: seccomp.AuditArchX8664, Args: e.Args}
				want := filt.Check(&d).Action.Allows()
				sw := swChecker.Check(e.SID, e.Args)
				hw := eng.OnSyscall(e.PC, e.SID, e.Args)
				if sw.Allowed != want {
					t.Fatalf("event %d (sid %d): software draco %v, filter %v", i, e.SID, sw.Allowed, want)
				}
				if hw.Allowed != want {
					t.Fatalf("event %d (sid %d): hardware draco %v, filter %v (flow %v)", i, e.SID, hw.Allowed, want, hw.Flow)
				}
				if !want {
					denied++
				}
			}
			t.Logf("%s: %d/%d events denied, decisions identical across all three paths", w.Name, denied, len(eval))
		})
	}
}

// TestDifferentialDracoHWAllows verifies the hardware engine never changes
// a decision when it runs over the bitmap-tier software checker the
// service runs, with one static call site per syscall number (libc
// wrappers, the common case the STB is built for): its SLB/STB/SPT
// structures only cache what the same deterministic filter validated, so
// the allow/deny stream matches the sequential checker's event for event.
// Smaller event count: the model simulates a cache hierarchy per check.
func TestDifferentialDracoHWAllows(t *testing.T) {
	const events = 20_000
	genOpts := profilegen.Options{IncludeRuntime: true}
	bitmapChecker := func(p *seccomp.Profile) *core.Checker {
		f, err := seccomp.NewFilterMode(p, seccomp.ShapeLinear, seccomp.ExecBitmap)
		if err != nil {
			t.Fatal(err)
		}
		return core.NewChecker(p, seccomp.Chain{f})
	}
	sitePC := func(sid int) uint64 { return 0x40_1000 + uint64(sid)*16 }
	for _, name := range []string{"httpd", "grep", "sysbench-fio"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := w.Generate(events, 0xD12AC0)
			p := profilegen.Complete(w.Name, tr, genOpts)
			seq := bitmapChecker(p)
			mem := microarch.DefaultHierarchy()
			mem.AttachDRAM(microarch.NewDRAM())
			hw := NewEngine(DefaultConfig(), bitmapChecker(p), mem, microarch.DefaultTLB())
			for i, ev := range tr {
				want := seq.Check(ev.SID, ev.Args)
				got := hw.OnSyscall(sitePC(ev.SID), ev.SID, ev.Args)
				if got.Allowed != want.Allowed {
					t.Fatalf("event %d (sid=%d): sequential allowed=%v, hardware allowed=%v",
						i, ev.SID, want.Allowed, got.Allowed)
				}
			}
		})
	}
}
