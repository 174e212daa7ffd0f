package engine

import (
	"testing"

	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// Registry-level differential test (extends PR 1's concurrent-vs-core test):
// replay 100k-event traces of every workload through every registered
// software engine and require the decision streams to agree.
//
//   - filter-only, draco-sw, and draco-concurrent(syscall) must agree on the
//     full allow/deny/action stream event for event: caching must never
//     change what a caller is told.
//   - draco-sw and draco-concurrent(syscall) must additionally agree on the
//     cached flag and executed filter instructions exactly — syscall routing
//     keeps each syscall's cuckoo table whole, reproducing the sequential
//     checker bit for bit.
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
				sw, err := New("draco-sw", Options{Profile: p})
				if err != nil {
					t.Fatal(err)
				}
				con, err := New("draco-concurrent", Options{Profile: p, Shards: 4, Routing: "syscall"})
				if err != nil {
					t.Fatal(err)
				}
				for i, ev := range tr {
					base := fo.Check(ev.SID, ev.Args)
					dsw := sw.Check(ev.SID, ev.Args)
					dcon := con.Check(ev.SID, ev.Args)
					if dsw.Allowed != base.Allowed || dsw.Action != base.Action {
						t.Fatalf("%s event %d (sid=%d): filter-only %+v, draco-sw %+v",
							pname, i, ev.SID, base, dsw)
					}
					if dcon != dsw {
						t.Fatalf("%s event %d (sid=%d args=%v): draco-sw %+v, draco-concurrent %+v",
							pname, i, ev.SID, ev.Args, dsw, dcon)
					}
				}
				ssw, scon := sw.Stats(), con.Stats()
				if ssw.Checks != scon.Checks || ssw.FilterRuns != scon.FilterRuns || ssw.Denied != scon.Denied {
					t.Fatalf("%s stats diverge: draco-sw %+v, draco-concurrent %+v", pname, ssw, scon)
				}
				sfo := fo.Stats()
				if sfo.Denied != ssw.Denied {
					t.Fatalf("%s denial counts diverge: filter-only %d, draco-sw %d", pname, sfo.Denied, ssw.Denied)
				}
			}
		})
	}
}

// TestDifferentialArgsRoutingDecisionExact pins what became of args
// routing at the registry level. The "args" key is rejected: a syscall's
// VAT table lives whole in one shard, where the plane record names it. On
// every workload a 16-shard draco-concurrent, whose argument-checked hits
// are served by the lock-free VAT probe, must equal draco-sw event for
// event, cached flag and filter instructions included, both bare (the
// decision path) and observed (the full-outcome path).
func TestDifferentialArgsRoutingDecisionExact(t *testing.T) {
	if _, err := New("draco-concurrent", Options{Profile: seccomp.DockerDefault(), Routing: "args"}); err == nil {
		t.Fatal(`draco-concurrent accepted the deleted "args" routing key`)
	}
	const events = 100_000
	genOpts := profilegen.Options{IncludeRuntime: true}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.Generate(events, 0xD12AC0)
			p := profilegen.Complete(w.Name, tr, genOpts)
			sw, err := New("draco-sw", Options{Profile: p})
			if err != nil {
				t.Fatal(err)
			}
			bare, err := New("draco-concurrent", Options{Profile: p, Shards: 16, Routing: "syscall"})
			if err != nil {
				t.Fatal(err)
			}
			observed, err := New("draco-concurrent", Options{Profile: p, Shards: 16, Routing: "syscall", Observer: &Counters{}})
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range tr {
				want := sw.Check(ev.SID, ev.Args)
				if got := bare.Check(ev.SID, ev.Args); got != want {
					t.Fatalf("event %d (sid=%d args=%v): draco-sw %+v, bare draco-concurrent %+v", i, ev.SID, ev.Args, want, got)
				}
				if got := observed.Check(ev.SID, ev.Args); got != want {
					t.Fatalf("event %d (sid=%d args=%v): draco-sw %+v, observed draco-concurrent %+v", i, ev.SID, ev.Args, want, got)
				}
			}
			ssw := sw.Stats()
			for name, e := range map[string]Engine{"bare": bare, "observed": observed} {
				s := e.Stats()
				if s.Checks != ssw.Checks || s.FilterRuns != ssw.FilterRuns || s.Denied != ssw.Denied {
					t.Fatalf("%s stats diverge: draco-sw %+v, draco-concurrent %+v", name, ssw, s)
				}
			}
		})
	}
}

// TestDifferentialDracoHWAllows verifies the latency-annotated hardware
// engine never changes a decision: its SLB/STB/SPT structures only cache
// what the same deterministic filter validated, so the allow/deny stream
// matches draco-sw event for event. Smaller event count: the hardware model
// simulates a cache hierarchy per check.
func TestDifferentialDracoHWAllows(t *testing.T) {
	const events = 20_000
	genOpts := profilegen.Options{IncludeRuntime: true}
	for _, name := range []string{"httpd", "grep", "sysbench-fio"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := w.Generate(events, 0xD12AC0)
			p := profilegen.Complete(w.Name, tr, genOpts)
			sw, err := New("draco-sw", Options{Profile: p})
			if err != nil {
				t.Fatal(err)
			}
			hw, err := New("draco-hw", Options{Profile: p})
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range tr {
				want := sw.Check(ev.SID, ev.Args)
				got := hw.Check(ev.SID, ev.Args)
				if got.Allowed != want.Allowed {
					t.Fatalf("event %d (sid=%d): draco-sw allowed=%v, draco-hw allowed=%v",
						i, ev.SID, want.Allowed, got.Allowed)
				}
			}
		})
	}
}
