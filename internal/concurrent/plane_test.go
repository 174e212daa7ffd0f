package concurrent

import (
	"sync"
	"sync/atomic"
	"testing"

	"draco/internal/core"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// TestFastPathDifferentialPlaneIdentity is the decision-identity proof for
// the lock-free plane: replay 100k-event traces of every workload through
// two checkers that differ only in NoFastPath and require byte-identical
// outcomes — the FastHit attribution flag is the single permitted
// difference — plus exact Stats equality, over both the single-call and
// the batch entry points. Any plane record whose compiled outcome deviates
// from the locked path, or whose stats folding drops or double-counts a
// field, fails here.
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
				fast, err := NewCheckerConfig(p, Config{Shards: 4, Mode: seccomp.ExecBitmap})
				if err != nil {
					t.Fatal(err)
				}
				slow, err := NewCheckerConfig(p, Config{Shards: 4, Mode: seccomp.ExecBitmap, NoFastPath: true})
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
				}
				// Batch entry point, deliberately uneven batch sizes so both
				// the single-shard loop and the grouped drain see plane-
				// resolved calls at every position.
				sizes := []int{1, 3, 64, 17, 128, 5, 31}
				var calls []Call
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
					for i := range gouts {
						g := gouts[i]
						g.FastHit = false
						if g != wouts[i] {
							t.Fatalf("%s batch off=%d call %d (sid=%d): plane %+v, locked %+v",
								pname, off, i, calls[i].SID, gouts[i], wouts[i])
						}
					}
					off += n
				}
				// Classes name the path that served, so they alone may differ:
				// each plane hit is a fast-hit on one side and an id-fast (constant
				// allow) or a denied (constant deny) on the other.
				st, ss := fast.Stats(), slow.Stats()
				moved := st.Classes[core.ClassFastHit]
				if moved != fast.FastStats().Hits || ss.Classes[core.ClassFastHit] != 0 ||
					st.Classes[core.ClassIDFast]+st.Classes[core.ClassDenied]+moved != ss.Classes[core.ClassIDFast]+ss.Classes[core.ClassDenied] {
					t.Fatalf("%s plane hits misattributed:\nplane  %+v\nlocked %+v", pname, st, ss)
				}
				st.Classes[core.ClassFastHit] = 0
				st.Classes[core.ClassIDFast], st.Classes[core.ClassDenied] = ss.Classes[core.ClassIDFast], ss.Classes[core.ClassDenied]
				if st != ss {
					t.Fatalf("%s stats diverge:\nplane  %+v\nlocked %+v", pname, st, ss)
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

	// Bitmap execution activates the plane; args routing maximizes
	// cross-shard churn on the fallthrough path.
	c, err := NewCheckerConfig(full, Config{Shards: 4, Routing: RouteByArgs, Mode: seccomp.ExecBitmap})
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
			for i := 0; i < perG; i++ {
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
	var swaps atomic.Uint64
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
	c, err := NewCheckerConfig(p, Config{Shards: 4, Mode: seccomp.ExecBitmap})
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
