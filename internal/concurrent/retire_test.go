package concurrent

import (
	"runtime"
	"testing"

	"draco/internal/hashes"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// TestSwapsReleaseRetiredGenerations swaps the profile 2000 times with
// checks on every path in between. A superseded generation is folded into
// the running total and dropped, so the live heap must not grow with the
// number of swaps, and no check may go missing from Stats.
func TestSwapsReleaseRetiredGenerations(t *testing.T) {
	w := workloads.All()[0]
	tr := w.Generate(2_000, 15)
	genOpts := profilegen.Options{IncludeRuntime: true}
	profiles := []*seccomp.Profile{
		profilegen.Complete(w.Name, tr, genOpts),
		profilegen.NoArgs(w.Name, tr, genOpts),
	}
	c, err := NewCheckerConfig(profiles[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	const perSwap = 48
	swaps := 2000
	if raceEnabled {
		swaps = 200 // a swap costs ~15 ms under the detector
	}
	var issued, base uint64
	calls := make([]Call, 16)
	var outs []Outcome
	for s := 1; s <= swaps; s++ {
		if err := c.SetProfile(profiles[s%2]); err != nil {
			t.Fatal(err)
		}
		// Twice over the same calls: first checks insert and seed the
		// plane, second checks hit the VAT and the plane.
		for i := 0; i < perSwap; i++ {
			ev := tr[(s*7+i%(perSwap/2))%len(tr)]
			c.Check(ev.SID, ev.Args)
		}
		c.Check(9999, hashes.Args{}) // out of policy: the plane's constant deny
		for i := range calls {
			ev := tr[(s+i)%len(tr)]
			calls[i] = Call{SID: ev.SID, Args: ev.Args}
		}
		outs = c.CheckBatch(calls, outs)
		issued += perSwap + 1 + uint64(len(calls))
		if s == 10 {
			base = heapInuse()
		}
	}
	if got := c.Stats().Checks; got != issued {
		t.Fatalf("Stats().Checks = %d after %d swaps, issued %d", got, swaps, issued)
	}
	if g := c.Generation(); g != uint64(swaps)+1 {
		t.Fatalf("generation %d after %d swaps", g, swaps)
	}
	// One generation of this profile is ~100 KB; 2000 kept would be ~200 MB.
	const slack = 4 << 20
	if end := heapInuse(); end > base+slack {
		t.Fatalf("HeapInuse grew from %d KB after 10 swaps to %d KB after %d: generations are being kept",
			base>>10, end>>10, swaps)
	}
	runtime.KeepAlive(c)
}

// TestStaleGenerationIsRedone holds on to a generation across the swap that
// retires it, the way a check that loaded the state just before the swap
// does: the sealed plane must refuse its constants, the generation must be
// sealed, the batch drain must redo its calls on the successor, and Stats
// must count each call exactly once.
func TestStaleGenerationIsRedone(t *testing.T) {
	w := workloads.All()[0]
	tr := w.Generate(2_000, 15)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	c, err := NewCheckerConfig(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr {
		c.Check(ev.SID, ev.Args)
	}
	issued := uint64(len(tr))
	stale := c.state.Load()
	if err := c.SetProfile(p); err != nil {
		t.Fatal(err)
	}

	// One call per path: a seeded constant allow, a constant deny, a VAT probe.
	kinds := map[uint8]bool{}
	var calls []Call
	for _, ev := range tr {
		k := stale.plane.records[ev.SID].kind
		if k == planeFallthrough && stale.plane.records[ev.SID].table.Load() == nil {
			continue
		}
		if !kinds[k] {
			kinds[k] = true
			calls = append(calls, Call{SID: ev.SID, Args: ev.Args})
		}
	}
	calls = append(calls, Call{SID: 400}) // unlisted: constant deny
	if !kinds[planeConstAllow] || !kinds[planeFallthrough] || stale.plane.records[400].kind != planeConstDeny {
		t.Fatalf("trace lacks a path: %v", kinds)
	}
	for _, cl := range calls {
		if hit, _ := stale.plane.fastCheck(cl.SID); hit != nil {
			t.Fatalf("sealed plane answered sid %d", cl.SID)
		}
	}
	if !stale.sealed {
		t.Fatal("the retired generation is not sealed")
	}
	if got := c.Stats().Checks; got != issued {
		t.Fatalf("refused calls were counted: Stats().Checks = %d, issued %d", got, issued)
	}

	n := len(calls)
	dst := make([]Outcome, n)
	c.drainTo(stale, calls, batchDst{outs: dst}, make([]int32, n))
	for i, cl := range calls {
		want := c.Check(cl.SID, cl.Args)
		// The redone call was the successor's first of its kind; the
		// comparison call is its second.
		if dst[i].Allowed != want.Allowed || dst[i].Action != want.Action {
			t.Fatalf("sid %d redone as %+v, current generation says %+v", cl.SID, dst[i], want)
		}
	}
	issued += 2 * uint64(n)
	if got := c.Stats().Checks; got != issued {
		t.Fatalf("Stats().Checks = %d, issued %d", got, issued)
	}
}
