package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// The per-check Observer hook is the oracle for the read-side fold: what a
// Counters observer saw call by call is what Stats() must report, exactly,
// for every registry engine — classes, cache hits, denials.
// The server renders its whole /metrics page from Stats alone on the
// strength of this equality.

// foldCase is one engine configuration and the two policies it is swapped
// between.
type foldCase struct {
	name   string
	engine string
	p1, p2 *seccomp.Profile
	trace  []Call
}

func foldCases(t testing.TB, events int) []foldCase {
	w := workloads.All()[0]
	tr := w.Generate(events, 0xF01D)
	calls := make([]Call, len(tr))
	for i, ev := range tr {
		calls[i] = Call{SID: ev.SID, Args: ev.Args}
	}
	// Every 41st call is to an unlisted number: a denial the plane serves.
	for i := 40; i < len(calls); i += 41 {
		calls[i].SID = 400 + i%7
	}
	complete := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	idOnly := profilegen.NoArgs(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	var cases []foldCase
	for _, name := range append(Names(), sequential) {
		cases = append(cases, foldCase{name: name, engine: name, p1: complete, p2: idOnly, trace: calls})
		cases = append(cases, foldCase{
			name: name + "/programmable", engine: name,
			p1:    progTestProfile(t, "fold-rate", rateLimitSource(t)),
			p2:    progTestProfile(t, "fold-phase", phaseTighteningSource(t)),
			trace: progTrace(events),
		})
	}
	return cases
}

// sequential names the fold cases of the bare core.Checker — software
// Draco, as the simulator calls it — which is no registry engine: its cases
// run through replaySequential.
const sequential = "draco-sw"

// replaySequential replays fc's trace through a bare core.Checker, rebuilt
// for p2 halfway the way an engine's SetProfile rebuilds it, feeds obs
// (when non-nil) each outcome, and returns the Stats folded across both
// generations.
func replaySequential(t testing.TB, fc foldCase, obs Observer) Stats {
	chk := mustCoreChecker(t, fc.p1)
	var prior Stats
	for i, cl := range fc.trace {
		if i == len(fc.trace)/2 {
			prior.Add(chk.Stats)
			chk = mustCoreChecker(t, fc.p2)
		}
		out := chk.Check(cl.SID, cl.Args)
		if obs != nil {
			observeOutcome(obs, cl.SID, &out)
		}
	}
	prior.Add(chk.Stats)
	return prior
}

// replay drives calls through e, alternating single checks with batches of
// uneven sizes so both entry points feed the counts.
func replay(e Engine, calls []Call) {
	sizes := []int{1, 64, 3, 1, 128, 17, 1, 200}
	var dst []Decision
	for off, k := 0, 0; off < len(calls); k++ {
		n := min(sizes[k%len(sizes)], len(calls)-off)
		if n == 1 {
			e.Check(calls[off].SID, calls[off].Args)
		} else {
			dst = e.CheckBatch(calls[off:off+n], dst)
		}
		off += n
	}
}

// requireFoldEqualsHook compares an engine's folded Stats with what its
// Counters observer saw.
func requireFoldEqualsHook(t *testing.T, st Stats, c *Counters, issued uint64) {
	t.Helper()
	if st.Checks != issued || c.Checks() != issued {
		t.Fatalf("issued %d checks: fold counts %d, hook %d", issued, st.Checks, c.Checks())
	}
	var sum uint64
	for cl := LatencyClass(0); cl < NumLatencyClasses; cl++ {
		if st.Classes[cl] != c.ByClass(cl) {
			t.Errorf("class %s: fold %d, hook %d", cl, st.Classes[cl], c.ByClass(cl))
		}
		sum += st.Classes[cl]
	}
	if sum != st.Checks {
		t.Errorf("classes sum to %d of %d checks", sum, st.Checks)
	}
	if got := st.SPTHits + st.VATHits; got != c.CacheHits() {
		t.Errorf("cache hits: fold %d, hook %d", got, c.CacheHits())
	}
	if st.Denied != c.Denied() {
		t.Errorf("denials: fold %d, hook %d", st.Denied, c.Denied())
	}
}

// TestFoldMatchesHookDifferential replays a 100k-event trace with a profile
// swap mid-way through every registry engine, and the bare sequential
// checker, with a Counters observer attached and requires the folded Stats
// to equal the observer's counts.
// A twin built without an observer — the server's wiring, which takes the
// no-classify paths — must fold to the same Stats.
func TestFoldMatchesHookDifferential(t *testing.T) {
	const events = 100_000
	for _, fc := range foldCases(t, events) {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			t.Parallel()
			var c Counters
			var st, bs Stats
			if fc.engine == sequential {
				st, bs = replaySequential(t, fc, &c), replaySequential(t, fc, nil)
			} else {
				e, err := New(fc.engine, Options{Profile: fc.p1, Observer: &c})
				if err != nil {
					t.Fatal(err)
				}
				bare, err := New(fc.engine, Options{Profile: fc.p1})
				if err != nil {
					t.Fatal(err)
				}
				for _, eng := range []Engine{e, bare} {
					replay(eng, fc.trace[:events/2])
					if err := eng.SetProfile(fc.p2); err != nil {
						t.Fatal(err)
					}
					replay(eng, fc.trace[events/2:])
				}
				st, bs = e.Stats(), bare.Stats()
			}
			requireFoldEqualsHook(t, st, &c, events)
			if c.Denied() == 0 || (c.CacheHits() == 0 && fc.engine != "filter-only") {
				t.Fatalf("trace exercised no denials or no cache hits: %+v", st)
			}
			if bs != st {
				t.Fatalf("observer-less twin folds differently:\nbare     %+v\nobserved %+v", bs, st)
			}
		})
	}
}

// TestFoldMatchesHookRace is the concurrent half: two checkers and a
// goroutine alternating Stats() with SetProfile share each concurrency-safe
// engine, so class counts ride through seal, fold and redo while being
// read. At the end the fold must still equal the hook — no class count
// lost, none doubled.
func TestFoldMatchesHookRace(t *testing.T) {
	const events = 4_000
	for _, fc := range foldCases(t, events) {
		fc := fc
		if info, _ := Lookup(fc.engine); !info.Concurrent {
			continue
		}
		t.Run(fc.name, func(t *testing.T) {
			t.Parallel()
			var c Counters
			e, err := New(fc.engine, Options{Profile: fc.p1, Observer: &c})
			if err != nil {
				t.Fatal(err)
			}
			// Each checker replays its half until three swaps have landed
			// among its checks.
			var swaps, issued atomic.Uint64
			var checkers sync.WaitGroup
			for g := 0; g < 2; g++ {
				checkers.Add(1)
				go func(half []Call) {
					defer checkers.Done()
					for done := false; !done; {
						done = swaps.Load() >= 3
						replay(e, half)
						issued.Add(uint64(len(half)))
					}
				}(fc.trace[g*events/2 : (g+1)*events/2])
			}
			stop := make(chan struct{})
			swapped := make(chan struct{})
			go func() {
				defer close(swapped)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					st := e.Stats()
					var sum uint64
					for _, n := range st.Classes {
						sum += n
					}
					if sum != st.Checks {
						t.Errorf("mid-run Stats: classes sum to %d of %d checks", sum, st.Checks)
						return
					}
					if err := e.SetProfile([]*seccomp.Profile{fc.p2, fc.p1}[i%2]); err != nil {
						t.Errorf("swap %d: %v", i, err)
						return
					}
					swaps.Add(1)
				}
			}()
			checkers.Wait()
			close(stop)
			<-swapped
			requireFoldEqualsHook(t, e.Stats(), &c, issued.Load())
		})
	}
}
