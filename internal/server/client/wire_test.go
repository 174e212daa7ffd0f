package client

import (
	"context"
	"errors"
	"net"
	"testing"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
)

// TestWirePickSkipsPoisonedConn: in a two-connection pool whose first
// connection's call table has failed, every call routes to the healthy
// connection and is answered; the poisoned one is never picked.
func TestWirePickSkipsPoisonedConn(t *testing.T) {
	srv := server.New(server.Options{DefaultProfile: seccomp.DockerDefault()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := srv.NewSessionHub(server.SessionOptions{}).NewWireServer()
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	w, err := DialWire(ln.Addr().String(), WireOptions{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })

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
