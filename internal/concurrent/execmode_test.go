package concurrent

import (
	"os"
	"path/filepath"
	"testing"

	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/syscalls"
	"draco/internal/trace"
	"draco/internal/workloads"
)

// TestDifferentialExecModes replays 100k-event traces of every workload
// through the filter execution tiers and pins their contracts:
//
//   - interp vs compiled, each on a sequential core.Checker: the compiled
//     direct-threaded program (the simulator's filter) is decision- AND
//     observability-identical to the interpreter (the oracle) — every
//     Decision field (including FilterInstructions) and the aggregate Stats
//     must match exactly.
//   - the concurrent checker (always the bitmap tier) vs interp: the bitmap
//     and the decision plane may skip filter runs (so instruction counts and
//     classes legitimately differ) but the security outcome — Allowed and
//     Action — must match on every event, and check and denial counts must
//     agree.
//
// The programmable/ inputs stack each demo policy of examples/programmable
// on httpd's profile, so the same contracts also cover the attached program
// under every tier.
func TestDifferentialExecModes(t *testing.T) {
	genOpts := profilegen.Options{IncludeRuntime: true}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.Generate(100_000, 0xD12AC0)
			replayExecModes(t, profilegen.Complete(w.Name, tr, genOpts), tr)
		})
	}

	httpd, _ := workloads.ByName("httpd")
	base := httpd.Generate(100_000, 0xD12AC0)
	// httpd issues openat and read, which the rate-limit and
	// open-before-read programs gate; the phase-gated calls are spliced in
	// so phase-tightening runs its map path too.
	var tr trace.Trace
	gated := []int{
		syscalls.MustByName("execve").Num,
		syscalls.MustByName("socket").Num,
		syscalls.MustByName("prctl").Num,
	}
	for i, ev := range base {
		if i%997 == 0 {
			tr = append(tr, trace.Event{SID: gated[(i/997)%len(gated)]})
		}
		tr = append(tr, ev)
	}
	p := profilegen.Complete("httpd", base, genOpts)
	for _, file := range []string{"rate-limit.json", "open-before-read.json", "phase-tightening.json"} {
		f, err := os.Open(filepath.Join("..", "..", "examples", "programmable", file))
		if err != nil {
			t.Fatal(err)
		}
		demo, err := seccomp.ReadJSON(f, file)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		stacked := *p
		stacked.Programmable = demo.Programmable
		t.Run("programmable/"+demo.Programmable.Name, func(t *testing.T) {
			t.Parallel()
			replayExecModes(t, &stacked, tr)
		})
	}
}

// replayExecModes runs tr through a sequential checker per lower tier and
// the concurrent checker on p and checks the tier contracts of
// TestDifferentialExecModes.
func replayExecModes(t *testing.T, p *seccomp.Profile, tr trace.Trace) {
	interp := sequentialCheckerMode(t, p, seccomp.ExecInterp)
	compiled := sequentialCheckerMode(t, p, seccomp.ExecCompiled)
	con := mustChecker(t, p)
	for i, ev := range tr {
		oi, oc, ob := interp.Check(ev.SID, ev.Args), compiled.Check(ev.SID, ev.Args), con.Check(ev.SID, ev.Args)
		di, dc, db := oi.Decision(), oc.Decision(), ob.Decision()
		if dc != di {
			t.Fatalf("event %d (sid=%d args=%v): interp %+v, compiled %+v", i, ev.SID, ev.Args, di, dc)
		}
		if db.Allowed != di.Allowed || db.Action != di.Action {
			t.Fatalf("event %d (sid=%d args=%v): interp %+v, concurrent %+v", i, ev.SID, ev.Args, di, db)
		}
	}
	si, sc, sb := interp.Stats, compiled.Stats, con.Stats()
	if si != sc {
		t.Fatalf("stats diverge: interp %+v, compiled %+v", si, sc)
	}
	if si.Checks != sb.Checks || si.Denied != sb.Denied {
		t.Fatalf("concurrent stats diverge: interp %+v, concurrent %+v", si, sb)
	}
}
