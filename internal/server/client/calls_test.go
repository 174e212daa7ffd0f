package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"draco/internal/engine"
	"draco/internal/wire"
)

// TestDropAfterFailPoolsCleanCall: a send that fails during teardown calls
// drop on a call tab.fail has already signalled. The slot must reach the
// pool with the signal consumed, so the next round trip on the recycled
// call waits for its own completion instead of returning at once with
// typ 0.
func TestDropAfterFailPoolsCleanCall(t *testing.T) {
	tab := newCallTable()
	id, call, err := tab.register()
	if err != nil {
		t.Fatal(err)
	}
	tab.fail(errors.New("connection torn down"))
	tab.drop(id, call)
	if n := len(call.done); n != 0 {
		t.Fatalf("call pooled with %d stale completion signal(s)", n)
	}

	// Register until the pool hands the recycled call back (it usually does
	// at once; the pool may also have dropped it, which ends the hunt).
	fresh := newCallTable()
	var held []*wireCall
	defer func() {
		for _, c := range held {
			putWireCall(c)
		}
	}()
	for i := 0; i < 64; i++ {
		id2, c2, err := fresh.register()
		if err != nil {
			t.Fatal(err)
		}
		if len(c2.done) != 0 {
			t.Fatalf("register handed out a call already signalled (recycled=%t)", c2 == call)
		}
		if c2 != call {
			fresh.withdraw(id2)
			held = append(held, c2)
			continue
		}
		// Nobody completes it yet: the wait must last until ctx gives up.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err = fresh.await(ctx, id2, c2)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("await on the recycled call returned %v before its completion", err)
		}
		// And its own completion is what ends a wait.
		id3, c3, err := fresh.register()
		if err != nil {
			t.Fatal(err)
		}
		want := engine.Decision{Allowed: true, Cached: true}
		fresh.complete(wire.TypeCheckResp, id3, wire.AppendCheckResp(nil, want))
		got, err := fresh.await(context.Background(), id3, c3)
		if err != nil || got.typ != wire.TypeCheckResp || got.decision != want {
			t.Fatalf("completed call answered typ=%v decision=%+v err=%v", got.typ, got.decision, err)
		}
		putWireCall(got)
		return
	}
}
