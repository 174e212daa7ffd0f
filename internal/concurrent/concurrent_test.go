package concurrent

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"draco/internal/core"
	"draco/internal/hashes"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/syscalls"
	"draco/internal/workloads"
)

// sequentialChecker is the oracle: the bare core.Checker on the bitmap
// tier a generation runs, with p's program attached the same way.
func sequentialChecker(t testing.TB, p *seccomp.Profile) *core.Checker {
	t.Helper()
	return sequentialCheckerMode(t, p, seccomp.ExecBitmap)
}

// sequentialCheckerMode builds the sequential checker on one filter
// execution tier.
func sequentialCheckerMode(t testing.TB, p *seccomp.Profile, mode seccomp.ExecMode) *core.Checker {
	t.Helper()
	f, err := seccomp.NewFilterMode(p, seccomp.ShapeLinear, mode)
	if err != nil {
		t.Fatal(err)
	}
	chk := core.NewChecker(p, seccomp.Chain{f})
	if p.Programmable != nil {
		chk.Prog = p.Programmable.Attach()
	}
	return chk
}

func mustChecker(t testing.TB, p *seccomp.Profile) *Checker {
	t.Helper()
	c, err := NewCheckerConfig(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// decision is the externally visible outcome of one check: what the service
// reports to a caller. The differential test requires these to be identical
// between the sequential and the concurrent checker.
type decision struct {
	allowed  bool
	cached   bool
	executed int
	action   seccomp.Action
}

func decide(o core.Outcome) decision {
	return decision{allowed: o.Allowed, cached: !o.FilterRan, executed: o.FilterExecuted, action: o.Action}
}

// TestDifferentialAgainstSequential replays a 100k-event trace of every
// workload through the concurrent checker and the sequential core.Checker and
// requires identical allow/deny/cached decisions event for event, under
// both the workload's complete application-specific profile and the Docker
// default profile.
func TestDifferentialAgainstSequential(t *testing.T) {
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
				seq := sequentialChecker(t, p)
				con := mustChecker(t, p)
				for i, ev := range tr {
					want := decide(seq.Check(ev.SID, ev.Args))
					got := decide(con.Check(ev.SID, ev.Args))
					if got != want {
						t.Fatalf("%s event %d (sid=%d args=%v): sequential %+v, concurrent %+v",
							pname, i, ev.SID, ev.Args, want, got)
					}
				}
				ss, cs := seq.Stats, con.Stats()
				if ss.Checks != cs.Checks || ss.FilterRuns != cs.FilterRuns || ss.Denied != cs.Denied {
					t.Fatalf("%s stats diverge: sequential %+v, concurrent %+v", pname, ss, cs)
				}
			}
		})
	}
}

// TestDifferentialExactStats replays one workload's 100k-event trace
// through one checker and the sequential core.Checker and requires the same
// decision on every event and exactly the same Stats at the end: one SPT and VAT
// per generation, under one lock, is the sequential checker plus lock-free
// hits. The decision plane's constants are the one attributed difference:
// each is a fast-hit where the sequential checker names its own class.
func TestDifferentialExactStats(t *testing.T) {
	w, ok := workloads.ByName("nginx")
	if !ok {
		w = workloads.All()[0]
	}
	tr := w.Generate(100_000, 7)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	seq := sequentialChecker(t, p)
	con := mustChecker(t, p)
	var moved [core.NumLatencyClasses]uint64
	for i, ev := range tr {
		so, co := seq.Check(ev.SID, ev.Args), con.Check(ev.SID, ev.Args)
		if got, want := decide(co), decide(so); got != want {
			t.Fatalf("event %d (sid=%d args=%v): sequential %+v, concurrent %+v", i, ev.SID, ev.Args, want, got)
		}
		if co.FastHit {
			moved[so.Class()]++
		}
	}
	want := seq.Stats
	for cl, n := range moved {
		want.Classes[cl] -= n
		want.Classes[core.ClassFastHit] += n
	}
	if cs := con.Stats(); want != cs {
		t.Fatalf("stats diverge:\nsequential %+v\nconcurrent %+v", want, cs)
	}
}

// TestBatchMatchesSingle checks that CheckBatch returns exactly what the
// same calls issued one at a time would return, in order.
func TestBatchMatchesSingle(t *testing.T) {
	w := workloads.All()[0]
	tr := w.Generate(20_000, 11)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	single := mustChecker(t, p)
	batched := mustChecker(t, p)

	const batchSize = 64
	for off := 0; off < len(tr); off += batchSize {
		end := off + batchSize
		if end > len(tr) {
			end = len(tr)
		}
		calls := make([]Call, end-off)
		for i, ev := range tr[off:end] {
			calls[i] = Call{SID: ev.SID, Args: ev.Args}
		}
		outs := batched.CheckBatch(calls, nil)
		if len(outs) != len(calls) {
			t.Fatalf("batch returned %d results for %d calls", len(outs), len(calls))
		}
		for i, cl := range calls {
			want := decide(single.Check(cl.SID, cl.Args))
			if got := decide(outs[i]); got != want {
				t.Fatalf("batch offset %d call %d: single %+v, batch %+v", off, i, want, got)
			}
		}
	}
}

// TestProgrammableBatchOrder pins batch order across syscalls under a
// stateful program: the shipped open-before-read policy denies read until
// an open or openat has been seen. A batch interleaves the stateful calls
// with constant allows (close, fstat, write) and a constant deny (getpid),
// and CheckBatch and CheckBatchDecisions must each answer what a twin
// checker answers through CheckDecision one call at a time, with the same
// Stats up to the classes that name the serving path (a constant allow not
// yet seeded when the batch began is an id-fast check in the batch and a
// fast hit one by one). Every batch runs on fresh checkers, so each starts
// a blank map epoch; seeded random batches add interleavings beyond the
// fixed one.
func TestProgrammableBatchOrder(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "examples", "programmable", "open-before-read.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := seccomp.ReadJSON(f, "open-before-read")
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]string{{"read", "getpid", "read", "open", "read", "fstat", "getpid", "read", "close", "openat", "read", "write"}}
	pool := []string{"read", "read", "read", "getpid", "open", "openat", "close", "fstat", "write"}
	rng := rand.New(rand.NewSource(29))
	for b := 0; b < 50; b++ {
		batch := make([]string, 1+rng.Intn(64))
		for i := range batch {
			batch[i] = pool[rng.Intn(len(pool))]
		}
		batches = append(batches, batch)
	}
	mk := func() *Checker {
		c, err := NewCheckerConfig(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var reads, deniedReads int
	for bi, batch := range batches {
		calls := make([]Call, len(batch))
		for i, n := range batch {
			calls[i] = Call{SID: syscalls.MustByName(n).Num, Args: hashes.Args{3, 0, 4096}}
		}
		twin, outs, decs := mk(), mk(), mk()
		gotOuts := outs.CheckBatch(calls, nil)
		gotDecs := decs.CheckBatchDecisions(calls, nil)
		for i := range calls {
			want := twin.CheckDecision(calls[i].SID, &calls[i].Args)
			if d := gotOuts[i].Decision(); d != want {
				t.Fatalf("batch %d call %d (%s): CheckBatch %+v, one by one %+v", bi, i, batch[i], d, want)
			}
			if gotDecs[i] != want {
				t.Fatalf("batch %d call %d (%s): CheckBatchDecisions %+v, one by one %+v", bi, i, batch[i], gotDecs[i], want)
			}
			if batch[i] == "read" {
				reads++
				if !want.Allowed {
					deniedReads++
				}
			}
		}
		ws := pathFree(twin.Stats())
		for name, c := range map[string]*Checker{"CheckBatch": outs, "CheckBatchDecisions": decs} {
			if s := pathFree(c.Stats()); s != ws {
				t.Fatalf("batch %d: %s stats diverge:\nbatch      %+v\none by one %+v", bi, name, s, ws)
			}
		}
	}
	// Both orders must occur, or the test proves nothing about order.
	if deniedReads == 0 || deniedReads == reads {
		t.Fatalf("%d of %d reads denied: the batches do not mix reads before and after an open", deniedReads, reads)
	}
}

// pathFree folds the classes of plane constants, which name the path that
// served, into the locked path's: a fast hit is an id-fast check.
func pathFree(s Stats) Stats {
	s.Classes[core.ClassIDFast] += s.Classes[core.ClassFastHit]
	s.Classes[core.ClassFastHit] = 0
	return s
}

func TestCheckBatchEmptyAndReuse(t *testing.T) {
	c := mustChecker(t, seccomp.DockerDefault())
	if got := c.CheckBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	buf := make([]core.Outcome, 0, 8)
	read := syscalls.MustByName("read").Num
	out := c.CheckBatch([]Call{{SID: read}}, buf)
	if len(out) != 1 || !out[0].Allowed {
		t.Fatalf("reused-buffer batch: %+v", out)
	}
}

// TestHotSwapSemantics verifies that SetProfile empties the cache (new
// generation revalidates through the filter), switches decisions to the new
// profile, and keeps cumulative statistics.
func TestHotSwapSemantics(t *testing.T) {
	read := syscalls.MustByName("read").Num
	openat := syscalls.MustByName("openat").Num

	allowRead := &seccomp.Profile{
		Name:          "read-only",
		DefaultAction: seccomp.Errno(1),
		Rules:         []seccomp.Rule{{Syscall: syscalls.MustByName("read")}},
	}
	allowBoth := &seccomp.Profile{
		Name:          "read-openat",
		DefaultAction: seccomp.Errno(1),
		Rules: []seccomp.Rule{
			{Syscall: syscalls.MustByName("read")},
			{Syscall: syscalls.MustByName("openat")},
		},
	}

	c := mustChecker(t, allowRead)
	if out := c.Check(read, hashes.Args{}); !out.Allowed || !out.FilterRan {
		t.Fatalf("first read: %+v", out)
	}
	if out := c.Check(read, hashes.Args{}); !out.Allowed || out.FilterRan {
		t.Fatalf("cached read: %+v", out)
	}
	if out := c.Check(openat, hashes.Args{}); out.Allowed {
		t.Fatalf("openat should be denied under read-only: %+v", out)
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}

	if err := c.SetProfile(allowBoth); err != nil {
		t.Fatal(err)
	}
	if g := c.Generation(); g != 2 {
		t.Fatalf("generation after swap = %d, want 2", g)
	}
	if c.Profile().Name != "read-openat" {
		t.Fatalf("active profile = %q", c.Profile().Name)
	}
	// New generation: the read entry must be revalidated (filter runs), and
	// openat is now allowed.
	if out := c.Check(read, hashes.Args{}); !out.Allowed || !out.FilterRan {
		t.Fatalf("read after swap should re-run filter: %+v", out)
	}
	if out := c.Check(openat, hashes.Args{}); !out.Allowed {
		t.Fatalf("openat after swap: %+v", out)
	}

	st := c.Stats()
	if st.Checks != 5 {
		t.Fatalf("stats not cumulative across swap: %+v", st)
	}
	if st.Denied != 1 {
		t.Fatalf("denied = %d, want 1: %+v", st.Denied, st)
	}
}

func TestSetProfileRejectsInvalid(t *testing.T) {
	c := mustChecker(t, seccomp.DockerDefault())
	bad := &seccomp.Profile{Name: "bad", DefaultAction: seccomp.ActAllow}
	if err := c.SetProfile(bad); err == nil {
		t.Fatal("SetProfile accepted an allowing-default profile")
	}
	// The active profile must be unchanged after a rejected swap.
	if c.Profile().Name != seccomp.DockerDefault().Name || c.Generation() != 1 {
		t.Fatalf("state changed after rejected swap: %s gen %d", c.Profile().Name, c.Generation())
	}
}

func TestResetClearsCache(t *testing.T) {
	c := mustChecker(t, seccomp.DockerDefault())
	read := syscalls.MustByName("read").Num
	c.Check(read, hashes.Args{})
	if out := c.Check(read, hashes.Args{}); out.FilterRan {
		t.Fatalf("expected cached: %+v", out)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if out := c.Check(read, hashes.Args{}); !out.FilterRan {
		t.Fatalf("expected revalidation after reset: %+v", out)
	}
}

// TestVATBytesGrows sanity-checks the footprint gauge: argument-checked
// validations must allocate VAT sections.
func TestVATBytesGrows(t *testing.T) {
	w := workloads.All()[0]
	tr := w.Generate(5_000, 3)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	c := mustChecker(t, p)
	if c.VATBytes() != 0 {
		t.Fatalf("fresh checker VATBytes = %d, want 0", c.VATBytes())
	}
	for _, ev := range tr {
		c.Check(ev.SID, ev.Args)
	}
	if c.VATBytes() == 0 {
		t.Fatal("VATBytes still 0 after replaying an argument-checked trace")
	}
}

// Guard against trace generation accidentally becoming arg-free, which
// would hollow out the differential tests.
func TestTracesExerciseArgChecking(t *testing.T) {
	w := workloads.All()[0]
	tr := w.Generate(10_000, 5)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	c := mustChecker(t, p)
	var argChecked int
	for _, ev := range tr {
		if c.Check(ev.SID, ev.Args).ArgsChecked {
			argChecked++
		}
	}
	if argChecked == 0 {
		t.Fatal("no event exercised argument checking")
	}
}
