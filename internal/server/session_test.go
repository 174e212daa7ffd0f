package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"draco/internal/seccomp"
	"draco/internal/shm"
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
