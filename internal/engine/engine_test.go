package engine

import (
	"testing"

	"draco/internal/seccomp"
	"draco/internal/syscalls"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"draco-concurrent", "draco-hw", "filter-only"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestNewUnknownEngine(t *testing.T) {
	if _, err := New("nope", Options{Profile: seccomp.DockerDefault()}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := New("draco-concurrent", Options{}); err == nil {
		t.Fatal("nil profile accepted")
	}
}

// TestEngineContract exercises the shared contract on every registered
// engine: caching semantics, denial, stats accounting, SetProfile
// revalidation, and batch/single equivalence.
func TestEngineContract(t *testing.T) {
	read := syscalls.MustByName("read").Num
	ptrace := syscalls.MustByName("ptrace").Num
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := New(name, Options{Profile: seccomp.DockerDefault()})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			first := e.Check(read, Args{3, 0, 4096})
			if !first.Allowed || first.Cached {
				t.Fatalf("first read: %+v", first)
			}
			second := e.Check(read, Args{3, 0, 4096})
			if !second.Allowed {
				t.Fatalf("second read: %+v", second)
			}
			if name != "filter-only" && !second.Cached {
				t.Fatalf("%s did not cache: %+v", name, second)
			}
			if name == "filter-only" && second.Cached {
				t.Fatalf("filter-only claims caching: %+v", second)
			}
			if d := e.Check(ptrace, Args{}); d.Allowed {
				t.Fatalf("ptrace allowed: %+v", d)
			}

			st := e.Stats()
			if st.Checks != 3 || st.Denied != 1 {
				t.Fatalf("stats: %+v", st)
			}

			// Batch equals singles, in order.
			calls := []Call{{SID: read, Args: Args{3, 0, 4096}}, {SID: ptrace}}
			fresh, err := New(name, Options{Profile: seccomp.DockerDefault()})
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			single := make([]Decision, len(calls))
			for i, cl := range calls {
				single[i] = fresh.Check(cl.SID, cl.Args)
			}
			batcher, err := New(name, Options{Profile: seccomp.DockerDefault()})
			if err != nil {
				t.Fatal(err)
			}
			defer batcher.Close()
			batch := batcher.CheckBatch(calls, nil)
			for i := range calls {
				if batch[i] != single[i] {
					t.Fatalf("call %d: single %+v, batch %+v", i, single[i], batch[i])
				}
			}

			// SetProfile drops cached validations.
			if err := e.SetProfile(seccomp.DockerDefaultMasked()); err != nil {
				t.Fatal(err)
			}
			after := e.Check(read, Args{3, 0, 4096})
			if !after.Allowed || after.Cached {
				t.Fatalf("read after swap should revalidate: %+v", after)
			}
			if st := e.Stats(); st.Checks != 4 {
				t.Fatalf("stats not cumulative across swap: %+v", st)
			}
		})
	}
}

func TestCountersObserver(t *testing.T) {
	var c Counters
	e, err := New("draco-hw", Options{Profile: seccomp.DockerDefault(), Observer: &c})
	if err != nil {
		t.Fatal(err)
	}
	read := syscalls.MustByName("read").Num
	e.Check(read, Args{})
	e.Check(read, Args{})
	e.Check(syscalls.MustByName("ptrace").Num, Args{})
	if c.Checks() != 3 || c.Denied() != 1 || c.CacheHits() != 1 {
		t.Fatalf("counters: checks=%d denied=%d hits=%d", c.Checks(), c.Denied(), c.CacheHits())
	}
	if c.CheckCycles() == 0 {
		t.Fatal("draco-hw produced no cycle annotations")
	}
	if c.ByClass(ClassDenied) != 1 {
		t.Fatalf("denied class count = %d", c.ByClass(ClassDenied))
	}
	var sum uint64
	for cl := LatencyClass(0); cl < NumLatencyClasses; cl++ {
		sum += c.ByClass(cl)
	}
	if sum != c.Checks() {
		t.Fatalf("class counts sum to %d, checks %d", sum, c.Checks())
	}
}

func TestMultiObserver(t *testing.T) {
	var a, b Counters
	e, err := New("draco-concurrent", Options{Profile: seccomp.DockerDefault(), Observer: MultiObserver{&a, &b}})
	if err != nil {
		t.Fatal(err)
	}
	e.Check(syscalls.MustByName("read").Num, Args{})
	if a.Checks() != 1 || b.Checks() != 1 {
		t.Fatalf("fan-out failed: a=%d b=%d", a.Checks(), b.Checks())
	}
}

func TestLatencyClassStrings(t *testing.T) {
	for cl := LatencyClass(0); cl < NumLatencyClasses; cl++ {
		if cl.String() == "unknown" {
			t.Fatalf("class %d has no name", cl)
		}
	}
	if NumLatencyClasses.String() != "unknown" {
		t.Fatal("out-of-range class has a name")
	}
}
