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
// through the concurrent checker under each filter execution tier and pins the
// tier contracts where the tier is chosen (Config.Mode):
//
//   - interp vs compiled: the compiled direct-threaded program is decision-
//     AND observability-identical — every Decision field (including
//     FilterInstructions) and the aggregate Stats must match exactly.
//   - bitmap vs interp: the bitmap and the decision plane may skip filter
//     runs (so instruction counts and classes legitimately differ) but the
//     security outcome — Allowed and Action — must match on every event,
//     and check and denial counts must agree.
//
// The programmable/ inputs stack each demo policy of examples/programmable
// on httpd's profile, so the same contracts also cover the mode's mapping
// onto the attached program (constant extraction only under bitmap).
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

// replayExecModes runs tr through one checker per exec mode on p and
// checks the tier contracts of TestDifferentialExecModes.
func replayExecModes(t *testing.T, p *seccomp.Profile, tr trace.Trace) {
	mk := func(mode seccomp.ExecMode) *Checker {
		c, err := NewCheckerConfig(p, Config{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return c
	}
	interp := mk(seccomp.ExecInterp)
	compiled := mk(seccomp.ExecCompiled)
	bitmap := mk(seccomp.ExecBitmap)
	for i, ev := range tr {
		oi, oc, ob := interp.Check(ev.SID, ev.Args), compiled.Check(ev.SID, ev.Args), bitmap.Check(ev.SID, ev.Args)
		di, dc, db := oi.Decision(), oc.Decision(), ob.Decision()
		if dc != di {
			t.Fatalf("event %d (sid=%d args=%v): interp %+v, compiled %+v", i, ev.SID, ev.Args, di, dc)
		}
		if db.Allowed != di.Allowed || db.Action != di.Action {
			t.Fatalf("event %d (sid=%d args=%v): interp %+v, bitmap %+v", i, ev.SID, ev.Args, di, db)
		}
	}
	si, sc, sb := interp.Stats(), compiled.Stats(), bitmap.Stats()
	if si != sc {
		t.Fatalf("stats diverge: interp %+v, compiled %+v", si, sc)
	}
	if si.Checks != sb.Checks || si.Denied != sb.Denied {
		t.Fatalf("bitmap stats diverge: interp %+v, bitmap %+v", si, sb)
	}
}
