package engine

import (
	"testing"

	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// The zero-allocation property of the single-call hot path is part of the
// Engine contract for the software mechanisms: Args and Decision travel by
// value, stats are pre-sized counters, and an attached Observer receives
// its Observation on the stack. These guards fail the build the moment a
// refactor reintroduces a per-check allocation.

// warmEngine builds an engine over a workload's complete profile and warms
// its tables by replaying the trace once, so the measured path is the
// steady-state hit path (SPT/VAT hits plus the occasional filter run on
// cuckoo evictions — none of which may allocate either).
func warmEngine(t testing.TB, name string, opts Options) (Engine, []Call) {
	t.Helper()
	p, calls := allocTrace()
	opts.Profile = p
	e, err := New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range calls {
		e.Check(cl.SID, cl.Args)
	}
	return e, calls
}

// allocTrace is the first workload's trace and its complete profile.
func allocTrace() (*seccomp.Profile, []Call) {
	w := workloads.All()[0]
	tr := w.Generate(20_000, 0xA110C)
	calls := make([]Call, len(tr))
	for i, ev := range tr {
		calls[i] = Call{SID: ev.SID, Args: ev.Args}
	}
	return profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true}), calls
}

// assertZeroAllocs replays the warm trace through check under
// testing.AllocsPerRun and requires zero allocations per checked call.
func assertZeroAllocs(t *testing.T, check func(int, Args) Decision, calls []Call) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc accounting is perturbed under -race")
	}
	i := 0
	perRun := testing.AllocsPerRun(2000, func() {
		cl := calls[i%len(calls)]
		check(cl.SID, cl.Args)
		i++
	})
	if perRun != 0 {
		t.Fatalf("single-call hot path allocates %.2f allocs/op, want 0", perRun)
	}
}

// TestDracoSWCheckZeroAllocs pins software Draco's sequential checker — the
// bare core.Checker that draco-concurrent's locked path runs — warm.
func TestDracoSWCheckZeroAllocs(t *testing.T) {
	p, calls := allocTrace()
	chk := mustCoreChecker(t, p)
	check := func(sid int, args Args) Decision { return decide(chk, sid, args) }
	for _, cl := range calls {
		check(cl.SID, cl.Args)
	}
	assertZeroAllocs(t, check, calls)
}

// TestDracoConcurrentCheckZeroAllocs pins the server's wiring: no observer,
// so the wrapper holds a nil hook, makes no call through it, and answers
// through the checker's decision path.
func TestDracoConcurrentCheckZeroAllocs(t *testing.T) {
	t.Run("syscall", func(t *testing.T) {
		e, calls := warmEngine(t, "draco-concurrent", Options{})
		if obs := e.(*dracoConcurrent).obs; obs != nil {
			t.Fatalf("engine built without an observer holds %T", obs)
		}
		assertZeroAllocs(t, e.Check, calls)
	})
}

// TestDracoConcurrentCheckBatchZeroAllocs pins the batch path: the caller's
// calls reach the checker untranslated and the decisions are written
// straight into a reused dst — or, with an observer attached, a
// service-sized batch takes its outcomes on the stack — so a warm 64-call
// batch allocates nothing either way.
func TestDracoConcurrentCheckBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed under -race")
	}
	for name, obs := range map[string]Observer{"bare": nil, "observed": &Counters{}} {
		e, calls := warmEngine(t, "draco-concurrent", Options{Observer: obs})
		const batch = 64
		dst := make([]Decision, 0, batch)
		off := 0
		perRun := testing.AllocsPerRun(500, func() {
			dst = e.CheckBatch(calls[off:off+batch], dst)
			off = (off + batch) % (len(calls) - batch)
		})
		if perRun != 0 {
			t.Fatalf("%s draco-concurrent CheckBatch(%d) allocates %.2f allocs/op, want 0", name, batch, perRun)
		}
	}
}

// TestZeroAllocsWithCounters pins that attaching the atomic Counters
// observer keeps the hot path allocation-free too: observation delivery is
// by value.
func TestZeroAllocsWithCounters(t *testing.T) {
	var c Counters
	e, calls := warmEngine(t, "draco-concurrent", Options{Observer: &c})
	assertZeroAllocs(t, e.Check, calls)
	if c.Checks() == 0 || c.CacheHits() == 0 {
		t.Fatalf("counters not fed: checks=%d hits=%d", c.Checks(), c.CacheHits())
	}
}
