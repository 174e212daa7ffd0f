package client

import (
	"context"
	"errors"
	"net"
	"testing"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/shm"
)

// dialRealWire starts a wire front end on a real server over loopback and
// dials it, closing both when the test ends.
func dialRealWire(t *testing.T, opts WireOptions) *Wire {
	t.Helper()
	srv := server.New(server.Options{DefaultProfile: seccomp.DockerDefault()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := srv.NewSessionHub(server.SessionOptions{}).NewWireServer()
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	w, err := DialWire(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestWirePickSkipsPoisonedConn: in a two-connection pool whose first
// connection's call table has failed, every call routes to the healthy
// connection and is answered; the poisoned one is never picked.
func TestWirePickSkipsPoisonedConn(t *testing.T) {
	w := dialRealWire(t, WireOptions{Conns: 2})
	bad, good := w.conns[0], w.conns[1]
	if !bad.tab.alive() || !good.tab.alive() {
		t.Fatal("fresh connections report dead")
	}
	bad.tab.fail(errors.New("poisoned"))
	if bad.tab.alive() {
		t.Fatal("failed table still reports alive")
	}
	badIDs, goodIDs := bad.tab.nextID.Load(), good.tab.nextID.Load()

	const calls = 8 // every start offset of the round robin, several times
	read := testSID(t, "read")
	ctx := context.Background()
	for i := 0; i < calls; i++ {
		d, err := w.Check(ctx, "t", read, engine.Args{uint64(i)})
		if err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		if !d.Allowed {
			t.Fatalf("check %d: read denied under docker-default: %+v", i, d)
		}
	}
	if got := bad.tab.nextID.Load() - badIDs; got != 0 {
		t.Fatalf("poisoned connection was picked for %d calls", got)
	}
	if got := good.tab.nextID.Load() - goodIDs; got != calls {
		t.Fatalf("healthy connection carried %d calls, want %d", got, calls)
	}
}

// TestZeroAllocsWireCheck pins a full Wire.Check round trip — register in
// the call table, frame, write, the server's decode, check and reply, the
// reader's completion — at zero allocations on a warm tenant. The server
// shares the process, so its side is pinned with it. scripts/check.sh runs
// this without -race.
func TestZeroAllocsWireCheck(t *testing.T) {
	if shm.RaceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	w := dialRealWire(t, WireOptions{})
	ctx := context.Background()
	read := testSID(t, "read")
	args := engine.Args{3, 0, 4096}
	for i := 0; i < 100; i++ {
		if _, err := w.Check(ctx, "t", read, args); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := w.Check(ctx, "t", read, args); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Wire.Check allocates %.4f allocs/op, want 0", avg)
	}
}
