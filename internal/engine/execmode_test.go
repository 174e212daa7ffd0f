package engine

import (
	"testing"

	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// TestDifferentialExecModes replays 100k-event traces of every workload
// through every registered engine under each BPF execution tier and pins
// the tier contracts at the registry level:
//
//   - interp vs compiled: the compiled direct-threaded program is decision-
//     AND observability-identical — every Decision field (including
//     FilterInstructions) and the aggregate Stats must match exactly.
//   - bitmap vs interp: the bitmap may skip filter runs (so instruction
//     counts legitimately differ) but the security outcome — Allowed and
//     Action — must match on every event, and denial counts must agree.
//
// draco-hw runs a reduced trace: it simulates a cache hierarchy per check
// (same scaling as TestDifferentialDracoHWAllows).
func TestDifferentialExecModes(t *testing.T) {
	genOpts := profilegen.Options{IncludeRuntime: true}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, name := range Names() {
				events := 100_000
				if name == "draco-hw" {
					events = 10_000
				}
				tr := w.Generate(events, 0xD12AC0)
				p := profilegen.Complete(w.Name, tr, genOpts)
				mk := func(mode string) Engine {
					opts := Options{Profile: p, BPFExec: mode}
					if name == "draco-concurrent" {
						opts.Shards = 4
						opts.Routing = "syscall"
					}
					e, err := New(name, opts)
					if err != nil {
						t.Fatalf("%s/%s: %v", name, mode, err)
					}
					return e
				}
				interp := mk("interp")
				compiled := mk("compiled")
				bitmap := mk("bitmap")
				for i, ev := range tr {
					di := interp.Check(ev.SID, ev.Args)
					dc := compiled.Check(ev.SID, ev.Args)
					db := bitmap.Check(ev.SID, ev.Args)
					if dc != di {
						t.Fatalf("%s event %d (sid=%d args=%v): interp %+v, compiled %+v",
							name, i, ev.SID, ev.Args, di, dc)
					}
					if db.Allowed != di.Allowed || db.Action != di.Action {
						t.Fatalf("%s event %d (sid=%d args=%v): interp %+v, bitmap %+v",
							name, i, ev.SID, ev.Args, di, db)
					}
				}
				si, sc, sb := interp.Stats(), compiled.Stats(), bitmap.Stats()
				if si != sc {
					t.Fatalf("%s stats diverge: interp %+v, compiled %+v", name, si, sc)
				}
				if si.Checks != sb.Checks || si.Denied != sb.Denied {
					t.Fatalf("%s bitmap stats diverge: interp %+v, bitmap %+v", name, si, sb)
				}
			}
		})
	}
}

// TestExecModeOption pins the registry-level flag plumbing: the default is
// the bitmap tier, explicit names select their tier, and unknown names
// fail construction.
func TestExecModeOption(t *testing.T) {
	p := seccomp.DockerDefault()
	for _, tc := range []struct {
		in   string
		want seccomp.ExecMode
	}{
		{"", seccomp.ExecBitmap},
		{"bitmap", seccomp.ExecBitmap},
		{"compiled", seccomp.ExecCompiled},
		{"interp", seccomp.ExecInterp},
	} {
		mode, err := (Options{BPFExec: tc.in}).execMode()
		if err != nil || mode != tc.want {
			t.Fatalf("execMode(%q) = %v, %v; want %v", tc.in, mode, err, tc.want)
		}
	}
	if _, err := (Options{BPFExec: "jit"}).execMode(); err == nil {
		t.Fatal("unknown exec mode accepted")
	}
	if _, err := New("filter-only", Options{Profile: p, BPFExec: "jit"}); err == nil {
		t.Fatal("engine constructed with unknown exec mode")
	}
}
