package engine

import (
	"testing"

	"draco/internal/core"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// mustCoreChecker is the oracle of the differential tests: the bare
// sequential checker on a linear bitmap-tier filter (compiling validates
// the profile), with the profile's programmable policy attached fresh, as
// a concurrent generation builds it.
func mustCoreChecker(t testing.TB, p *seccomp.Profile) *core.Checker {
	t.Helper()
	f, err := seccomp.NewFilterMode(p, seccomp.ShapeLinear, seccomp.ExecBitmap)
	if err != nil {
		t.Fatal(err)
	}
	chk := core.NewChecker(p, seccomp.Chain{f})
	chk.Prog = attachProgram(p)
	return chk
}

// decide is the oracle's answer to one call, as an engine reports it.
func decide(chk *core.Checker, sid int, args Args) Decision {
	out := chk.Check(sid, args)
	return out.Decision()
}

// Registry-level differential test: replay 100k-event traces of every
// workload through the software engines and the sequential checker and
// require the decision streams to agree.
//
//   - filter-only, the sequential checker and draco-concurrent must agree
//     on the full allow/deny/action stream event for event: caching must
//     never change what a caller is told.
//   - The sequential checker and draco-concurrent must additionally agree
//     on the cached flag and executed filter instructions exactly — one
//     SPT and VAT per generation reproduce the sequential checker bit for
//     bit.
func TestDifferentialAllEngines(t *testing.T) {
	const events = 100_000
	genOpts := profilegen.Options{IncludeRuntime: true}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.Generate(events, 0xD12AC0)
			profiles := map[string]*seccomp.Profile{
				"app-complete":   profilegen.Complete(w.Name, tr, genOpts),
				"docker-default": seccomp.DockerDefault(),
			}
			for pname, p := range profiles {
				fo, err := New("filter-only", Options{Profile: p})
				if err != nil {
					t.Fatal(err)
				}
				seq := mustCoreChecker(t, p)
				con, err := New("draco-concurrent", Options{Profile: p})
				if err != nil {
					t.Fatal(err)
				}
				for i, ev := range tr {
					base := fo.Check(ev.SID, ev.Args)
					dseq := decide(seq, ev.SID, ev.Args)
					dcon := con.Check(ev.SID, ev.Args)
					if dseq.Allowed != base.Allowed || dseq.Action != base.Action {
						t.Fatalf("%s event %d (sid=%d): filter-only %+v, sequential %+v",
							pname, i, ev.SID, base, dseq)
					}
					if dcon != dseq {
						t.Fatalf("%s event %d (sid=%d args=%v): sequential %+v, draco-concurrent %+v",
							pname, i, ev.SID, ev.Args, dseq, dcon)
					}
				}
				sseq, scon := seq.Stats, con.Stats()
				if sseq.Checks != scon.Checks || sseq.FilterRuns != scon.FilterRuns || sseq.Denied != scon.Denied {
					t.Fatalf("%s stats diverge: sequential %+v, draco-concurrent %+v", pname, sseq, scon)
				}
				sfo := fo.Stats()
				if sfo.Denied != sseq.Denied {
					t.Fatalf("%s denial counts diverge: filter-only %d, sequential %d", pname, sfo.Denied, sseq.Denied)
				}
			}
		})
	}
}

// TestDifferentialArgsRoutingDecisionExact pins, on every workload, that
// draco-concurrent, whose argument-checked hits are served by the
// lock-free VAT probe, equals the sequential checker event for event,
// cached flag and filter instructions included, both bare (the decision
// path) and observed (the full-outcome path).
func TestDifferentialArgsRoutingDecisionExact(t *testing.T) {
	const events = 100_000
	genOpts := profilegen.Options{IncludeRuntime: true}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.Generate(events, 0xD12AC0)
			p := profilegen.Complete(w.Name, tr, genOpts)
			seq := mustCoreChecker(t, p)
			bare, err := New("draco-concurrent", Options{Profile: p})
			if err != nil {
				t.Fatal(err)
			}
			observed, err := New("draco-concurrent", Options{Profile: p, Observer: &Counters{}})
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range tr {
				want := decide(seq, ev.SID, ev.Args)
				if got := bare.Check(ev.SID, ev.Args); got != want {
					t.Fatalf("event %d (sid=%d args=%v): sequential %+v, bare draco-concurrent %+v", i, ev.SID, ev.Args, want, got)
				}
				if got := observed.Check(ev.SID, ev.Args); got != want {
					t.Fatalf("event %d (sid=%d args=%v): sequential %+v, observed draco-concurrent %+v", i, ev.SID, ev.Args, want, got)
				}
			}
			sseq := seq.Stats
			for name, e := range map[string]Engine{"bare": bare, "observed": observed} {
				s := e.Stats()
				if s.Checks != sseq.Checks || s.FilterRuns != sseq.FilterRuns || s.Denied != sseq.Denied {
					t.Fatalf("%s stats diverge: sequential %+v, draco-concurrent %+v", name, sseq, s)
				}
			}
		})
	}
}
