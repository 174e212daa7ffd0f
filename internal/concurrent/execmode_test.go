package concurrent

import (
	"testing"

	"draco/internal/profilegen"
	"draco/internal/seccomp"
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
func TestDifferentialExecModes(t *testing.T) {
	genOpts := profilegen.Options{IncludeRuntime: true}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.Generate(100_000, 0xD12AC0)
			p := profilegen.Complete(w.Name, tr, genOpts)
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
		})
	}
}
