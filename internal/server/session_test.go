package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"draco/internal/core"
	"draco/internal/engine"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/shm"
	"draco/internal/wire"
	"draco/internal/workloads"
)

// TestResolveReadsNameOnce flips a tenant name between two same-length
// tenants while resolve runs, as a client rewriting its shm slot would:
// the session's cache must always pair the name it keeps with the tenant
// that name resolved to, so one resolve may read the client's bytes only
// once.
func TestResolveReadsNameOnce(t *testing.T) {
	if shm.RaceEnabled {
		t.Skip("the scribbler races resolve by design")
	}
	s := New(Options{DefaultProfile: seccomp.DockerDefault()})
	c := s.NewSessionHub(SessionOptions{}).newSession(nil)
	name := []byte("tenant-a")
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			name[len(name)-1] = "ab"[i&1]
			if i&63 == 0 {
				runtime.Gosched()
			}
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()
	for i := 0; i < 200000; i++ {
		if _, err := c.resolve(name); err != nil {
			t.Fatal(err)
		}
		if c.lastTen.name != string(c.lastName) {
			t.Fatalf("call %d: cached name %q holds tenant %q", i, c.lastName, c.lastTen.name)
		}
	}
}

// lastDecision is a responder that keeps the last single-check decision.
type lastDecision struct {
	d core.Decision
	n int
}

func (r *lastDecision) sendCheck(_ uint64, d core.Decision) { r.d, r.n = d, r.n+1 }
func (r *lastDecision) send(wire.Type, uint64, []byte)      {}
func (r *lastDecision) flush()                              {}

// TestHandleCheckZeroAllocs pins the session's single-check path — decode,
// cached tenant resolve, the checker's decision path, the responder — at
// zero allocations for a decision-plane constant and for a lock-free VAT
// hit on a warm tenant.
func TestHandleCheckZeroAllocs(t *testing.T) {
	if shm.RaceEnabled {
		t.Skip("alloc accounting is perturbed under -race")
	}
	w := workloads.All()[0]
	tr := w.Generate(20_000, 0xA110C)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	s := New(Options{DefaultProfile: p})
	var rec lastDecision
	c := s.NewSessionHub(SessionOptions{}).newSession(&rec)
	frame := func(sid int, args [6]uint64) []byte {
		return wire.AppendCheckReq(nil, "t", engine.Call{SID: sid, Args: args})
	}
	for _, ev := range tr {
		c.handleCheck(1, frame(ev.SID, ev.Args))
	}
	chk := c.lastTen.chk
	var constFrame, vatFrame []byte
	for _, ev := range tr {
		c.handleCheck(1, frame(ev.SID, ev.Args))
		if !rec.d.Allowed || !rec.d.Cached {
			continue
		}
		if chk.FastResolved(ev.SID) {
			constFrame = frame(ev.SID, ev.Args)
		} else {
			vatFrame = frame(ev.SID, ev.Args)
		}
	}
	if constFrame == nil || vatFrame == nil {
		t.Fatalf("warm trace lacks a path: constant %v, VAT hit %v", constFrame != nil, vatFrame != nil)
	}
	for name, f := range map[string][]byte{"constant": constFrame, "vat-hit": vatFrame} {
		n := rec.n
		if perRun := testing.AllocsPerRun(2000, func() { c.handleCheck(1, f) }); perRun != 0 {
			t.Fatalf("%s single check allocates %.2f allocs/op, want 0", name, perRun)
		}
		if rec.n == n || !rec.d.Allowed || !rec.d.Cached {
			t.Fatalf("%s check answered %+v", name, rec.d)
		}
	}
}
