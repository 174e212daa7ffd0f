package concurrent

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"draco/internal/core"
	"draco/internal/hashes"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// TestFastPathDifferentialPlaneIdentity is the decision-identity proof for
// the lock-free paths: replay 100k-event traces of every workload through
// two checkers that differ only in NoFastPath and require byte-identical
// outcomes — the FastHit attribution flag is the single permitted
// difference — plus exact Stats equality, over both the single-call and
// the batch entry points. A third checker, driven only through
// CheckDecision and CheckBatchDecisions, must answer the locked path's
// decisions. Any plane record whose compiled outcome deviates from the
// locked path, any lock-free VAT hit that differs from the locked one, or
// any stats fold that drops or double-counts a field, fails here.
func TestFastPathDifferentialPlaneIdentity(t *testing.T) {
	const events = 100_000
	genOpts := profilegen.Options{IncludeRuntime: true}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.Generate(events, 0xFA57)
			// app-complete exercises the fallthrough boundary (arg-checked
			// rules dominate); app-id-only and docker-default exercise the
			// constant-dominated traffic the plane is built for.
			profiles := map[string]*seccomp.Profile{
				"app-complete":   profilegen.Complete(w.Name, tr, genOpts),
				"app-id-only":    profilegen.NoArgs(w.Name, tr, genOpts),
				"docker-default": seccomp.DockerDefault(),
			}
			for pname, p := range profiles {
				fast, err := NewCheckerConfig(p, Config{Mode: seccomp.ExecBitmap})
				if err != nil {
					t.Fatal(err)
				}
				slow, err := NewCheckerConfig(p, Config{Mode: seccomp.ExecBitmap, NoFastPath: true})
				if err != nil {
					t.Fatal(err)
				}
				// A third checker answers through the decision entry points
				// only, with H1-first lock-free probes.
				dec, err := NewCheckerConfig(p, Config{Mode: seccomp.ExecBitmap})
				if err != nil {
					t.Fatal(err)
				}
				for i, ev := range tr {
					got := fast.Check(ev.SID, ev.Args)
					want := slow.Check(ev.SID, ev.Args)
					got.FastHit = false
					if got != want {
						t.Fatalf("%s event %d (sid=%d args=%v): plane %+v, locked %+v",
							pname, i, ev.SID, ev.Args, got, want)
					}
					if d := dec.CheckDecision(ev.SID, &ev.Args); d != want.Decision() {
						t.Fatalf("%s event %d (sid=%d args=%v): CheckDecision %+v, locked %+v",
							pname, i, ev.SID, ev.Args, d, want.Decision())
					}
				}
				// Batch entry point, deliberately uneven batch sizes so the
				// lock-free pass and the locked drain see plane-resolved
				// calls at every position.
				sizes := []int{1, 3, 64, 17, 128, 5, 31}
				var calls []Call
				var decs []core.Decision
				si := 0
				for off := 0; off < len(tr); {
					n := sizes[si%len(sizes)]
					si++
					if off+n > len(tr) {
						n = len(tr) - off
					}
					calls = calls[:0]
					for _, ev := range tr[off : off+n] {
						calls = append(calls, Call{SID: ev.SID, Args: ev.Args})
					}
					gouts := fast.CheckBatch(calls, nil)
					wouts := slow.CheckBatch(calls, nil)
					decs = dec.CheckBatchDecisions(calls, decs)
					for i := range gouts {
						g := gouts[i]
						g.FastHit = false
						if g != wouts[i] {
							t.Fatalf("%s batch off=%d call %d (sid=%d): plane %+v, locked %+v",
								pname, off, i, calls[i].SID, gouts[i], wouts[i])
						}
						if decs[i] != wouts[i].Decision() {
							t.Fatalf("%s batch off=%d call %d (sid=%d): CheckBatchDecisions %+v, locked %+v",
								pname, off, i, calls[i].SID, decs[i], wouts[i].Decision())
						}
					}
					off += n
				}
				// The constants' classes name the path that served, so they
				// alone may differ: each constant hit is a fast-hit on one side
				// and an id-fast (constant allow) or a denied (constant deny)
				// on the other. Lock-free VAT hits are vat-hits on both sides,
				// so every other class must match exactly.
				ss := slow.Stats()
				for name, c := range map[string]*Checker{"plane": fast, "decision": dec} {
					st := c.Stats()
					moved := st.Classes[core.ClassFastHit]
					if moved != c.FastStats().Hits || ss.Classes[core.ClassFastHit] != 0 ||
						st.Classes[core.ClassIDFast]+st.Classes[core.ClassDenied]+moved != ss.Classes[core.ClassIDFast]+ss.Classes[core.ClassDenied] {
						t.Fatalf("%s %s plane hits misattributed:\n%s  %+v\nlocked %+v", pname, name, name, st, ss)
					}
					st.Classes[core.ClassFastHit] = 0
					st.Classes[core.ClassIDFast], st.Classes[core.ClassDenied] = ss.Classes[core.ClassIDFast], ss.Classes[core.ClassDenied]
					if st != ss {
						t.Fatalf("%s %s stats diverge:\n%s  %+v\nlocked %+v", pname, name, name, st, ss)
					}
					if pname == "app-complete" && ss.VATHits > 0 && lockFreeVATHits(c) == 0 {
						t.Fatalf("%s %s: %d VAT hits, none served lock-free", pname, name, ss.VATHits)
					}
				}
				if n := lockFreeVATHits(slow); n != 0 {
					t.Fatalf("NoFastPath checker served %d lock-free VAT hits", n)
				}
				fs := fast.FastStats()
				if !fs.Enabled {
					t.Fatalf("%s: plane not enabled under ExecBitmap", pname)
				}
				// ID-only profiles make every in-policy trace event constant:
				// the plane must have taken over after the per-syscall seed
				// checks. (app-complete gives no such guarantee — a trace may
				// consist entirely of arg-checked syscalls.)
				if pname != "app-complete" && fs.Hits == 0 {
					t.Fatalf("%s: plane never answered a check (allow=%d deny=%d)",
						pname, fs.AllowRecords, fs.DenyRecords)
				}
				if ss := slow.FastStats(); ss.Hits != 0 {
					t.Fatalf("NoFastPath checker served %d fast hits", ss.Hits)
				}
			}
		})
	}
}

// lockFreeVATHits sums the VAT hits the live generation served without the
// lock.
func lockFreeVATHits(c *Checker) uint64 {
	var n uint64
	pl := c.state.Load().plane
	for i := range pl.records {
		if rec := &pl.records[i]; rec.kind == planeFallthrough {
			n += rec.hits.Load() &^ sealBit
		}
	}
	return n
}

// TestFastPathHotSwapHammer drives the plane-enabled checker from 16
// goroutines while the profile is hot-swapped between a complete profile
// and its ID-only projection. The swap churns the plane pointer with the
// state: checks race SetProfile, seeding races hot swaps, and Stats folds
// hit counters across retired generations. Invariants: no lost checks
// (plane hits included), nothing in-policy denied, nothing out-of-policy
// allowed.
func TestFastPathHotSwapHammer(t *testing.T) {
	w := workloads.All()[0]
	tr := w.Generate(30_000, 47)
	genOpts := profilegen.Options{IncludeRuntime: true}
	full := profilegen.Complete(w.Name, tr, genOpts)
	idOnly := profilegen.NoArgs(w.Name, tr, genOpts)

	// Bitmap execution activates the plane.
	c, err := NewCheckerConfig(full, Config{Mode: seccomp.ExecBitmap})
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines  = 16
		perG        = 2_000
		outOfPolicy = 9999 // not a valid syscall number: must always be denied
	)
	var (
		checkers   sync.WaitGroup
		issued     atomic.Uint64
		disallowed atomic.Uint64
		swaps      atomic.Uint64
	)
	for g := 0; g < goroutines; g++ {
		checkers.Add(1)
		go func(g int) {
			defer checkers.Done()
			batch := g%2 == 1
			var calls []Call
			flush := func() {
				for _, out := range c.CheckBatch(calls, nil) {
					issued.Add(1)
					if !out.Allowed {
						disallowed.Add(1)
					}
				}
				calls = calls[:0]
			}
			// At least two swaps must land among the checks, however
			// fast the checks are.
			for i := 0; i < perG || swaps.Load() < 2; i++ {
				ev := tr[(g*perG+i*7)%len(tr)]
				if batch {
					calls = append(calls, Call{SID: ev.SID, Args: ev.Args})
					if len(calls) == 64 {
						flush()
					}
					continue
				}
				out := c.Check(ev.SID, ev.Args)
				issued.Add(1)
				if !out.Allowed {
					disallowed.Add(1)
				}
				if i%257 == 0 {
					issued.Add(1)
					if res := c.Check(outOfPolicy, [6]uint64{}); res.Allowed {
						t.Error("out-of-policy syscall allowed")
						return
					}
				}
			}
			if len(calls) > 0 {
				flush()
			}
		}(g)
	}

	// Swapper: every swap retires a plane mid-flight. Readers that loaded
	// the old state keep hitting its (immutable) records; their counters
	// must still fold into Stats via the retired list.
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		profiles := []*seccomp.Profile{idOnly, full}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.SetProfile(profiles[i%2]); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			swaps.Add(1)
			_ = c.Stats()
			_ = c.FastStats()
		}
	}()

	checkers.Wait()
	close(stop)
	aux.Wait()

	if swaps.Load() == 0 {
		t.Fatal("profile swapper never ran")
	}
	st := c.Stats()
	if st.Checks != issued.Load() {
		t.Fatalf("lost checks: stats %d, issued %d (fast hits must fold across retired planes)",
			st.Checks, issued.Load())
	}
	// Both profiles allow every trace event's syscall, so denials can only
	// come from the out-of-policy probes (which are not counted there).
	if disallowed.Load() > 0 {
		t.Fatalf("%d in-policy calls denied", disallowed.Load())
	}
}

// TestVATProbeHotSwapHammer is TestFastPathHotSwapHammer's sibling for the
// lock-free VAT probe: argument-checked profiles swap under readers that
// probe tables with no lock, through all four entry points. Every swap
// retires tables that readers are probing and starts empty ones that the
// locked path fills and publishes, so lock-free hits race table creation,
// inserts, evictions and sealing. Invariants: the folded Stats.Checks
// equals the checks issued, nothing in policy is denied, nothing out of
// policy is allowed, and the VAT did serve hits without the lock.
func TestVATProbeHotSwapHammer(t *testing.T) {
	w := workloads.All()[0]
	tr := w.Generate(30_000, 49)
	genOpts := profilegen.Options{IncludeRuntime: true}
	// Two equal policies, so every swap is a new generation with empty
	// tables and both allow every trace event.
	profiles := []*seccomp.Profile{profilegen.Complete(w.Name, tr, genOpts), profilegen.Complete(w.Name, tr, genOpts)}
	c, err := NewCheckerConfig(profiles[0], Config{Mode: seccomp.ExecBitmap})
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines  = 8
		swaps       = 20
		outOfPolicy = 9999
	)
	var (
		checkers   sync.WaitGroup
		issued     atomic.Uint64
		disallowed atomic.Uint64
	)
	swapped := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		checkers.Add(1)
		go func(g int) {
			defer checkers.Done()
			var calls []Call
			var outs []Outcome
			var decs []core.Decision
			count := func(allowed bool) {
				issued.Add(1)
				if !allowed {
					disallowed.Add(1)
				}
			}
			for i := 0; ; i++ {
				if i%64 == 0 {
					select {
					case <-swapped:
						return
					default:
					}
				}
				ev := tr[(g*len(tr)/goroutines+i*7)%len(tr)]
				switch g % 4 {
				case 0:
					count(c.Check(ev.SID, ev.Args).Allowed)
				case 1:
					count(c.CheckDecision(ev.SID, &ev.Args).Allowed)
				case 2:
					if calls = append(calls, Call{SID: ev.SID, Args: ev.Args}); len(calls) == 64 {
						outs = c.CheckBatch(calls, outs)
						for _, out := range outs {
							count(out.Allowed)
						}
						calls = calls[:0]
					}
				case 3:
					if calls = append(calls, Call{SID: ev.SID, Args: ev.Args}); len(calls) == 64 {
						decs = c.CheckBatchDecisions(calls, decs)
						for _, d := range decs {
							count(d.Allowed)
						}
						calls = calls[:0]
					}
				}
				if i%257 == 0 {
					issued.Add(1)
					if c.CheckDecision(outOfPolicy, &hashes.Args{}).Allowed {
						t.Error("out-of-policy syscall allowed")
						return
					}
				}
			}
		}(g)
	}
	// Each generation lives a few milliseconds: long enough for readers to
	// fill and probe its tables, short enough to retire them mid-probe.
	var lockFree uint64
	for i := 1; i <= swaps; i++ {
		time.Sleep(2 * time.Millisecond)
		lockFree += lockFreeVATHits(c)
		if err := c.SetProfile(profiles[i%2]); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(swapped)
	checkers.Wait()

	if st := c.Stats(); st.Checks != issued.Load() {
		t.Fatalf("lost checks: stats %d, issued %d (lock-free VAT hits must fold across retired planes)",
			st.Checks, issued.Load())
	}
	if disallowed.Load() > 0 {
		t.Fatalf("%d in-policy calls denied", disallowed.Load())
	}
	if lockFree == 0 {
		t.Fatalf("no VAT hit was served lock-free over %d swaps", swaps)
	}
	t.Logf("%d checks, %d lock-free VAT hits seen before %d swaps", issued.Load(), lockFree, swaps)
}

// TestFastPathCheckZeroAllocs pins the zero-allocation property of plane
// hits: a fast check is a state load, a bounds check, and an atomic add —
// no map probe, no lock, no heap traffic — on both the constant-allow and
// the constant-deny record kinds.
func TestFastPathCheckZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed under -race")
	}
	w := workloads.All()[0]
	tr := w.Generate(20_000, 0xA110C)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	c, err := NewCheckerConfig(p, Config{Mode: seccomp.ExecBitmap})
	if err != nil {
		t.Fatal(err)
	}
	// Warm: the first locked check of each constant-allow syscall seeds its
	// record; afterwards the plane owns it.
	for _, ev := range tr {
		c.Check(ev.SID, ev.Args)
	}

	allowSID := -1
	for _, ev := range tr {
		if c.FastResolved(ev.SID) {
			if out := c.Check(ev.SID, ev.Args); out.FastHit && out.Allowed {
				allowSID = ev.SID
				break
			}
		}
	}
	if allowSID < 0 {
		t.Fatal("no seeded constant-allow record in a complete profile's trace")
	}
	denySID := -1
	for sid := 0; sid < seccomp.BitmapMaxNr; sid++ {
		if c.FastResolved(sid) {
			if out := c.Check(sid, [6]uint64{}); out.FastHit && !out.Allowed {
				denySID = sid
				break
			}
		}
	}
	if denySID < 0 {
		t.Fatal("no constant-deny record despite a deny-default profile")
	}

	for _, tc := range []struct {
		name string
		sid  int
	}{
		{"const-allow", allowSID},
		{"const-deny", denySID},
	} {
		perRun := testing.AllocsPerRun(2000, func() {
			c.Check(tc.sid, [6]uint64{})
		})
		if perRun != 0 {
			t.Fatalf("%s fast hit allocates %.2f allocs/op, want 0", tc.name, perRun)
		}
	}
}

// TestCheckDecisionZeroAllocs pins the decision path at zero allocations on
// each lock-free kind — constant allow, constant deny, VAT hit — and Check
// on a lock-free VAT hit, whose outcome is built on the stack.
func TestCheckDecisionZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed under -race")
	}
	w := workloads.All()[0]
	tr := w.Generate(20_000, 0xA110C)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	c, err := NewCheckerConfig(p, Config{Mode: seccomp.ExecBitmap})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr {
		c.Check(ev.SID, ev.Args)
	}
	var allow, deny, vat *hashes.Args
	var allowSID, denySID, vatSID int
	for i := range tr {
		ev := &tr[i]
		before := lockFreeVATHits(c)
		out := c.Check(ev.SID, ev.Args)
		switch {
		case out.FastHit && out.Allowed && allow == nil:
			allow, allowSID = &ev.Args, ev.SID
		case out.VATHit && lockFreeVATHits(c) > before && vat == nil:
			vat, vatSID = &ev.Args, ev.SID
		}
	}
	for sid := 0; sid < seccomp.BitmapMaxNr && deny == nil; sid++ {
		if out := c.Check(sid, hashes.Args{}); out.FastHit && !out.Allowed {
			deny, denySID = &hashes.Args{}, sid
		}
	}
	if allow == nil || deny == nil || vat == nil {
		t.Fatalf("warm trace lacks a path: allow %v, deny %v, VAT hit %v", allow != nil, deny != nil, vat != nil)
	}
	for _, tc := range []struct {
		name string
		sid  int
		args *hashes.Args
		want bool
	}{
		{"const-allow", allowSID, allow, true},
		{"const-deny", denySID, deny, false},
		{"vat-hit", vatSID, vat, true},
	} {
		var d core.Decision
		if perRun := testing.AllocsPerRun(2000, func() { d = c.CheckDecision(tc.sid, tc.args) }); perRun != 0 {
			t.Fatalf("CheckDecision %s allocates %.2f allocs/op, want 0", tc.name, perRun)
		}
		// A constant deny reports the filter-ran shape of the locked path.
		if d.Allowed != tc.want || d.Cached != tc.want {
			t.Fatalf("CheckDecision %s = %+v", tc.name, d)
		}
	}
	if perRun := testing.AllocsPerRun(2000, func() { c.Check(vatSID, *vat) }); perRun != 0 {
		t.Fatalf("Check on a lock-free VAT hit allocates %.2f allocs/op, want 0", perRun)
	}
}
