package engine

import (
	"sync"
	"testing"

	"draco/internal/concurrent"
	"draco/internal/ebpf"
	"draco/internal/seccomp"
	"draco/internal/syscalls"
)

// Demo-policy sources mirroring examples/programmable/*.json, assembled
// inline so the engine tests stay self-contained (the server tests exercise
// the shipped JSON files themselves).

func rateLimitSource(t testing.TB) *ebpf.Source {
	t.Helper()
	src, err := ebpf.NewSource("open-rate-limit",
		[]ebpf.MapSpec{{Name: "budget", Size: 1}},
		[]string{
			"ldctx r1, nr",
			"jeq   r1, 2, open",
			"jeq   r1, 257, open",
			"ret   allow",
			"open:",
			"mov   r2, 0",
			"mov   r3, 1",
			"madd  r4, budget[r2], r3",
			"jgt   r4, 4, deny",
			"ret   allow",
			"deny:",
			"ret   errno(1)",
		})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func openBeforeReadSource(t testing.TB) *ebpf.Source {
	t.Helper()
	src, err := ebpf.NewSource("open-before-read",
		[]ebpf.MapSpec{{Name: "opened", Size: 1}},
		[]string{
			"ldctx r1, nr",
			"jeq   r1, 0, read",
			"jeq   r1, 2, open",
			"jeq   r1, 257, open",
			"ret   allow",
			"open:",
			"mov   r2, 0",
			"mov   r3, 1",
			"mst   opened[r2], r3",
			"ret   allow",
			"read:",
			"mov   r2, 0",
			"mld   r3, opened[r2]",
			"jeq   r3, 0, deny",
			"ret   allow",
			"deny:",
			"ret   errno(9)",
		})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func phaseTighteningSource(t testing.TB) *ebpf.Source {
	t.Helper()
	src, err := ebpf.NewSource("phase-tightening",
		[]ebpf.MapSpec{{Name: "phase", Size: 1}},
		[]string{
			"ldctx r1, nr",
			"jeq   r1, 157, mark",
			"jeq   r1, 59, gated",
			"jeq   r1, 41, gated",
			"ret   allow",
			"mark:",
			"mov   r2, 0",
			"mov   r3, 1",
			"mst   phase[r2], r3",
			"ret   allow",
			"gated:",
			"mov   r2, 0",
			"mld   r3, phase[r2]",
			"jne   r3, 0, deny",
			"ret   allow",
			"deny:",
			"ret   errno(1)",
		})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// progTestProfile is an ID-only whitelist wide enough for the demo
// programs' scenario syscalls, with src stacked on top.
func progTestProfile(t testing.TB, name string, src *ebpf.Source) *seccomp.Profile {
	t.Helper()
	p := &seccomp.Profile{Name: name, DefaultAction: seccomp.Errno(1)}
	for _, n := range []string{"read", "write", "open", "close", "fstat", "socket", "execve", "openat", "prctl"} {
		p.Rules = append(p.Rules, seccomp.Rule{Syscall: syscalls.MustByName(n)})
	}
	p.SortRules()
	p.Programmable = src
	return p
}

// progTrace generates a deterministic stateful trace over the scenario
// syscalls: opens interleaved with reads, gated calls, and cache-friendly
// repeats, so every programmable tier (must-run, constant) is exercised.
func progTrace(events int) []Call {
	sids := []int{0, 2, 257, 3, 1, 41, 59, 157, 5}
	tr := make([]Call, events)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range tr {
		state = state*6364136223846793005 + 1442695040888963407
		sid := sids[(state>>33)%uint64(len(sids))]
		tr[i] = Call{SID: sid, Args: Args{state >> 40 & 0xff, 4096}}
	}
	return tr
}

// TestProgrammableCrossEngineDifferential replays one stateful trace through
// every software engine and the sequential checker and requires identical
// decision streams: caching
// (SPT/VAT, decision plane) must never change what a stateful policy
// decides. A mid-trace SetProfile swaps the program on every engine at the
// same event, so epoch semantics (fresh map state per generation) must
// agree too.
func TestProgrammableCrossEngineDifferential(t *testing.T) {
	const events = 40_000
	p1 := progTestProfile(t, "prog-p1", openBeforeReadSource(t))
	p2 := progTestProfile(t, "prog-p2", phaseTighteningSource(t))

	names := []string{"filter-only", "draco-concurrent"}
	engines := make([]Engine, len(names))
	for i, n := range names {
		e, err := New(n, Options{Profile: p1})
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		engines[i] = e
	}
	seq := mustCoreChecker(t, p1)

	tr := progTrace(events)
	var denied int
	for i, ev := range tr {
		if i == events/2 {
			for j, e := range engines {
				if err := e.SetProfile(p2); err != nil {
					t.Fatalf("%s: SetProfile: %v", names[j], err)
				}
			}
			seq = mustCoreChecker(t, p2)
		}
		base := engines[0].Check(ev.SID, ev.Args)
		if !base.Allowed {
			denied++
		}
		if got := seq.Check(ev.SID, ev.Args); got.Allowed != base.Allowed || got.Action != base.Action {
			t.Fatalf("event %d (sid=%d): %s says %+v, sequential says %+v",
				i, ev.SID, names[0], base, got.Decision())
		}
		for j := 1; j < len(engines); j++ {
			got := engines[j].Check(ev.SID, ev.Args)
			if got.Allowed != base.Allowed || got.Action != base.Action {
				t.Fatalf("event %d (sid=%d): %s says %+v, %s says %+v",
					i, ev.SID, names[0], base, names[j], got)
			}
		}
	}
	// The trace must actually exercise stateful denials (read-before-open in
	// the first half, gated execve/socket in the second), or the test proves
	// nothing.
	if denied == 0 {
		t.Fatal("trace produced no programmable denials")
	}
}

// TestProgrammableBitmapResolution pins the acceptance criterion that
// map-independent programmable paths bitmap-resolve: under the default
// bitmap exec tier, syscalls the classifier proves constant execute zero
// instructions (whitelist bitmap + extracted program constant), while
// must-run numbers execute the program every time. A concurrent checker
// built for the compiled tier runs instructions on the same constant paths,
// showing extraction (not accident) produces the zeros.
func TestProgrammableBitmapResolution(t *testing.T) {
	p := progTestProfile(t, "prog-bitmap", rateLimitSource(t))

	seq := mustCoreChecker(t, p)
	read := syscalls.MustByName("read").Num
	open := syscalls.MustByName("open").Num
	for i := 0; i < 3; i++ {
		for _, sid := range []int{read, syscalls.MustByName("close").Num, syscalls.MustByName("write").Num} {
			dec := decide(seq, sid, Args{3, 4096})
			if !dec.Allowed || dec.FilterInstructions != 0 {
				t.Fatalf("const-path sid=%d round %d: %+v (want allowed, 0 instructions)", sid, i, dec)
			}
		}
	}
	if got := seq.Stats.Classes[ClassProgHit]; got == 0 {
		t.Fatalf("no prog-hit checks on constant paths (checks=%d)", seq.Stats.Checks)
	}
	dec := decide(seq, open, Args{0, 0})
	if !dec.Allowed || dec.FilterInstructions == 0 {
		t.Fatalf("must-run open: %+v (want allowed with executed instructions)", dec)
	}
	if got := seq.Stats.Classes[ClassProgMiss]; got == 0 {
		t.Fatal("no prog-miss check on the must-run path")
	}

	// Same profile, compiled tier: no constant extraction, so the formerly
	// free constant path now executes program instructions.
	ec, err := concurrent.NewCheckerConfig(p, concurrent.Config{Mode: seccomp.ExecCompiled})
	if err != nil {
		t.Fatal(err)
	}
	if out := ec.Check(read, Args{3, 4096}); out.FilterExecuted == 0 {
		t.Fatalf("compiled tier const path executed nothing: %+v", out)
	}
}

// TestProgrammableOptionsOverride pins the Options.Program override: a
// profile without a program gains one at construction, and a later
// SetProfile reverts to the (absent) profile-carried policy.
func TestProgrammableOptionsOverride(t *testing.T) {
	plain := progTestProfile(t, "prog-plain", nil)
	e, err := New("draco-concurrent", Options{Profile: plain, Program: rateLimitSource(t)})
	if err != nil {
		t.Fatal(err)
	}
	open := syscalls.MustByName("open").Num
	for i := 1; i <= 4; i++ {
		if dec := e.Check(open, Args{0, 0}); !dec.Allowed {
			t.Fatalf("open %d denied under budget: %+v", i, dec)
		}
	}
	if dec := e.Check(open, Args{0, 0}); dec.Allowed {
		t.Fatalf("5th open allowed past budget: %+v", dec)
	}
	if err := e.SetProfile(plain); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if dec := e.Check(open, Args{0, 0}); !dec.Allowed {
			t.Fatalf("open denied after reverting to plain profile: %+v", dec)
		}
	}
}

// TestProgrammableDracoHWRejected: the hardware model's SLB/STB caches are
// stateless-only, so programmable profiles must be refused loudly at
// construction and at SetProfile, not silently mis-cached.
func TestProgrammableDracoHWRejected(t *testing.T) {
	p := progTestProfile(t, "prog-hw", rateLimitSource(t))
	if _, err := New("draco-hw", Options{Profile: p}); err == nil {
		t.Fatal("draco-hw accepted a programmable profile at construction")
	}
	e, err := New("draco-hw", Options{Profile: progTestProfile(t, "plain", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetProfile(p); err == nil {
		t.Fatal("draco-hw accepted a programmable profile via SetProfile")
	}
}

// TestProgrammableRaceHammer hammers per-tenant map state from 16 goroutines
// (mixed single checks and batches) while the main goroutine hot-swaps the
// programmable profile mid-stream, on the most layered engine
// (decision plane + lock-free VAT + program). Run under -race this is the
// concurrency safety net for the whole programmable stack; afterwards a
// final swap verifies the epoch contract — a fresh generation starts with
// blank maps.
func TestProgrammableRaceHammer(t *testing.T) {
	const (
		goroutines = 16
		iters      = 2_000
		swaps      = 25
	)
	p1 := progTestProfile(t, "hammer-rate", rateLimitSource(t))
	p2 := progTestProfile(t, "hammer-phase", phaseTighteningSource(t))
	e, err := New("draco-concurrent", Options{Profile: p1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			tr := progTrace(64)
			var dst []Decision
			for i := 0; i < iters; i++ {
				if i%7 == int(seed%7) {
					dst = e.CheckBatch(tr, dst)
					continue
				}
				ev := tr[(seed+uint64(i))%uint64(len(tr))]
				e.Check(ev.SID, ev.Args)
			}
		}(uint64(g) * 0x9E3779B9)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < swaps; i++ {
			p := p1
			if i%2 == 0 {
				p = p2
			}
			if err := e.SetProfile(p); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	// Fresh epoch: however many opens the hammer burned, a new generation
	// starts with a blank budget — exactly 4 opens pass, the 5th fails.
	if err := e.SetProfile(p1); err != nil {
		t.Fatal(err)
	}
	open := syscalls.MustByName("open").Num
	for i := 1; i <= 4; i++ {
		if dec := e.Check(open, Args{0, 0}); !dec.Allowed {
			t.Fatalf("post-swap open %d denied: %+v", i, dec)
		}
	}
	if dec := e.Check(open, Args{0, 0}); dec.Allowed {
		t.Fatal("post-swap 5th open allowed: map state leaked across the epoch")
	}
}
