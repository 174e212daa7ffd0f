package concurrent

import (
	"sync"
	"sync/atomic"
	"testing"

	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// TestHammerWithHotSwap drives the checker from 32 goroutines (a mix of
// single checks and batches) while the profile is hot-swapped concurrently.
// Its job is to give the race detector surface area and to assert the
// service-level invariants that must hold across swaps: no lost checks, and
// nothing outside policy ever allowed.
func TestHammerWithHotSwap(t *testing.T) {
	w := workloads.All()[0]
	tr := w.Generate(30_000, 21)
	genOpts := profilegen.Options{IncludeRuntime: true}
	full := profilegen.Complete(w.Name, tr, genOpts)
	idOnly := profilegen.NoArgs(w.Name, tr, genOpts)

	c, err := NewCheckerConfig(full, Config{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines  = 32
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

	// Swapper goroutine: flip between the complete and ID-only profiles
	// until the checkers are done. Stats/VATBytes reads keep state-pointer
	// loads interleaving with stores and walk the retired generations.
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
			_ = c.VATBytes()
		}
	}()

	// Readers that poke metadata while everything churns.
	for r := 0; r < 2; r++ {
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			for i := 0; i < 5_000; i++ {
				_ = c.Generation()
				_ = c.Profile().Name
			}
		}()
	}

	checkers.Wait()
	close(stop)
	aux.Wait()

	if swaps.Load() == 0 {
		t.Fatal("profile swapper never ran")
	}
	st := c.Stats()
	if st.Checks != issued.Load() {
		t.Fatalf("lost checks: stats %d, issued %d", st.Checks, issued.Load())
	}
	// Both profiles allow every trace event's syscall, so denials can only
	// come from the out-of-policy probes (which are not counted there).
	if disallowed.Load() > 0 {
		t.Fatalf("%d in-policy calls denied", disallowed.Load())
	}
}
