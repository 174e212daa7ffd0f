package draco

import (
	"bytes"
	"sync"
	"testing"
)

func TestSyscallLookup(t *testing.T) {
	if Syscall("read").Num != 0 {
		t.Fatal("read != 0")
	}
	if _, ok := LookupSyscall("nope"); ok {
		t.Fatal("bogus syscall found")
	}
}

func TestCheckerQuickstart(t *testing.T) {
	chk, err := NewChecker(DockerDefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	read := Syscall("read").Num
	first := chk.Check(read, Args{3, 0, 4096})
	if !first.Allowed || first.Cached {
		t.Fatalf("first: %+v", first)
	}
	second := chk.Check(read, Args{3, 0, 4096})
	if !second.Allowed || !second.Cached {
		t.Fatalf("second: %+v", second)
	}
	ptrace := Syscall("ptrace").Num
	if d := chk.Check(ptrace, Args{}); d.Allowed {
		t.Fatal("ptrace allowed by docker-default")
	}
}

// TestCheckerPublicAPI exercises the checker's concurrent surface:
// parallel checks, a batch, exact stats, and a hot swap that revalidates.
func TestCheckerPublicAPI(t *testing.T) {
	chk, err := NewChecker(DockerDefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	read := Syscall("read").Num
	personality := Syscall("personality").Num
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if d := chk.Check(read, Args{3, 0, 4096}); !d.Allowed {
					t.Error("read denied")
					return
				}
				if d := chk.Check(personality, Args{0}); !d.Allowed {
					t.Error("personality(0) denied")
					return
				}
			}
		}()
	}
	wg.Wait()

	ds := chk.CheckBatch([]Call{
		{SID: read, Args: Args{3, 0, 4096}},
		{SID: personality, Args: Args{0}},
		{SID: Syscall("init_module").Num},
	})
	if !ds[0].Allowed || !ds[0].Cached {
		t.Fatalf("batch read: %+v", ds[0])
	}
	if !ds[1].Allowed || !ds[1].Cached {
		t.Fatalf("batch personality: %+v", ds[1])
	}
	if ds[2].Allowed {
		t.Fatalf("batch init_module: %+v", ds[2])
	}

	// However the callers interleaved, each syscall ran the filter once:
	// read and personality(0) on their first check, which cached them, and
	// init_module once, denied.
	const perSyscall = 8*500 + 1
	st := chk.Stats()
	if st.Checks != 2*perSyscall+1 || st.FilterRuns != 3 || st.Denied != 1 ||
		st.SPTHits != perSyscall-1 || st.VATHits != perSyscall-1 || st.Inserts != 1 {
		t.Fatalf("stats: %+v", st)
	}

	if err := chk.SetProfile(DockerDefaultMaskedProfile()); err != nil {
		t.Fatal(err)
	}
	if d := chk.Check(read, Args{3, 0, 4096}); !d.Allowed || d.Cached {
		t.Fatalf("read after swap should revalidate: %+v", d)
	}
	if st := chk.Stats(); st.Checks != 2*perSyscall+2 {
		t.Fatalf("stats not cumulative across swap: %+v", st)
	}
}

// TestCheckerZeroAllocs pins Check at zero heap allocations on each
// lock-free kind: a constant allow, a constant deny and a VAT hit.
func TestCheckerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed under -race")
	}
	chk, err := NewChecker(DockerDefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		sid           int
		args          Args
		allow, cached bool
	}{
		{"constant-allow", Syscall("getpid").Num, Args{}, true, true},
		{"constant-deny", Syscall("ptrace").Num, Args{}, false, false},
		{"vat-hit", Syscall("personality").Num, Args{0}, true, true},
	} {
		chk.Check(c.sid, c.args) // warm: the first check fills the tables
		if d := chk.Check(c.sid, c.args); d.Allowed != c.allow || d.Cached != c.cached {
			t.Fatalf("%s: %+v", c.name, d)
		}
		if n := testing.AllocsPerRun(1000, func() { chk.Check(c.sid, c.args) }); n != 0 {
			t.Fatalf("%s: Check allocates %.2f allocs/op, want 0", c.name, n)
		}
	}
}

func TestFilterOnlyNeverCaches(t *testing.T) {
	f, err := NewFilterOnly(DockerDefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		// getpid has no argument checks, so the per-syscall bitmap resolves
		// it without running any filter instructions — but never via a cache.
		d := f.Check(Syscall("getpid").Num, Args{})
		if !d.Allowed || d.Cached || d.FilterInstructions != 0 {
			t.Fatalf("call %d: %+v", i, d)
		}
		// personality is arg-checked in docker-default, so the real filter
		// must execute every time.
		d = f.Check(Syscall("personality").Num, Args{0})
		if !d.Allowed || d.Cached || d.FilterInstructions == 0 {
			t.Fatalf("personality call %d: %+v", i, d)
		}
	}
}

func TestProfileFromTraceRoundtrip(t *testing.T) {
	w, ok := WorkloadByName("grep")
	if !ok {
		t.Fatal("grep missing")
	}
	tr := GenerateTrace(w, 3000, 7)
	p := ProfileFromTrace("grep", tr, true)
	if p.NumSyscalls() == 0 || p.NumArgsChecked() == 0 {
		t.Fatalf("empty profile: %d/%d", p.NumSyscalls(), p.NumArgsChecked())
	}
	chk, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tr {
		if d := chk.Check(e.SID, e.Args); !d.Allowed {
			t.Fatalf("event %d denied by own profile", i)
		}
	}
	if chk.VATBytes() == 0 {
		t.Fatal("no VAT allocated")
	}
}

func TestTraceSerialization(t *testing.T) {
	w, _ := WorkloadByName("pwgen")
	tr := GenerateTrace(w, 100, 1)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("roundtrip lost events: %d vs %d", len(back), len(tr))
	}
}

func TestSimulateFacade(t *testing.T) {
	w, _ := WorkloadByName("fifo-ipc")
	sec, err := Simulate(w, Seccomp, AppComplete, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := Simulate(w, HardwareDraco, AppComplete, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sec.Slowdown <= 1.0 {
		t.Fatalf("seccomp slowdown %.3f", sec.Slowdown)
	}
	if hw.Slowdown >= sec.Slowdown {
		t.Fatalf("hardware (%.3f) not faster than seccomp (%.3f)", hw.Slowdown, sec.Slowdown)
	}
	if hw.STBHitRate == 0 || hw.SLBAccessHitRate == 0 {
		t.Fatalf("hardware hit rates missing: %+v", hw)
	}
}

// TestSimulateRejectsUnknownSelectors covers the shared config-mapping
// helper's error paths for both simulation entry points.
func TestSimulateRejectsUnknownSelectors(t *testing.T) {
	w, _ := WorkloadByName("nginx")
	if _, err := Simulate(w, Mechanism(99), DockerDefault, 100, 1); err == nil {
		t.Fatal("unknown mechanism accepted by Simulate")
	}
	if _, err := Simulate(w, Seccomp, PolicyKind(99), 100, 1); err == nil {
		t.Fatal("unknown policy accepted by Simulate")
	}
	if _, err := SimulateMulticore(w, 2, Mechanism(99), DockerDefault, 100, 1); err == nil {
		t.Fatal("unknown mechanism accepted by SimulateMulticore")
	}
	if _, err := SimulateMulticore(w, 2, Seccomp, PolicyKind(99), 100, 1); err == nil {
		t.Fatal("unknown policy accepted by SimulateMulticore")
	}
}

func TestWorkloadsCount(t *testing.T) {
	if len(Workloads()) != 15 {
		t.Fatalf("workloads = %d", len(Workloads()))
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments")
	}
	out, err := RunExperiment("table3", true)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("empty experiment output")
	}
	if _, err := RunExperiment("nope", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestSimulateMulticoreFacade(t *testing.T) {
	w, _ := WorkloadByName("redis")
	hw, err := SimulateMulticore(w, 2, HardwareDraco, AppComplete, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := SimulateMulticore(w, 2, Seccomp, AppComplete, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hw >= sec {
		t.Fatalf("multicore hw (%.3f) not faster than seccomp (%.3f)", hw, sec)
	}
}

func TestMaskedDockerFacade(t *testing.T) {
	p := DockerDefaultMaskedProfile()
	chk, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	clone := Syscall("clone").Num
	if !chk.Check(clone, Args{0x11}).Allowed {
		t.Error("benign clone denied")
	}
	if chk.Check(clone, Args{0x10000000}).Allowed {
		t.Error("CLONE_NEWUSER allowed")
	}
	// The masked rule is visible through the profile model.
	r, ok := p.RuleFor(clone)
	if !ok || len(r.MaskedSets) != 1 {
		t.Fatalf("masked clone rule missing: %+v", r)
	}
	want := MaskCond{ArgIndex: 0, Mask: 0x7E020000, Value: 0}
	if r.MaskedSets[0][0] != want {
		t.Fatalf("condition = %+v, want %+v", r.MaskedSets[0][0], want)
	}
}
