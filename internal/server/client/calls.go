package client

// The in-flight call table: the id-matched completion machinery shared by
// every pipelined transport (the TCP wire client and the shared-memory
// client). A transport registers a call to get its id, sends the request
// however it likes — wire frame or ring slot — and awaits completion; the
// receiver (the wire read loop, or whichever shm caller holds the
// completion ring's reap role) completes calls by id.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"draco/internal/engine"
	"draco/internal/wire"
)

// wireCall is one in-flight request's completion slot. Pooled: the raw
// buffer's capacity survives reuse.
type wireCall struct {
	done     chan struct{}
	typ      wire.Type
	decision engine.Decision
	raw      []byte
	err      error
}

var wireCallPool = sync.Pool{New: func() any { return &wireCall{done: make(chan struct{}, 1)} }}

func getWireCall() *wireCall {
	c := wireCallPool.Get().(*wireCall)
	c.reset()
	return c
}

// reset clears the result fields, keeping the raw buffer's capacity.
func (c *wireCall) reset() {
	c.typ, c.decision, c.err = 0, engine.Decision{}, nil
	c.raw = c.raw[:0]
}

// fill stores one response frame's result. Payloads other than
// single-check decisions are copied out of p (receivers recycle their
// buffers).
func (c *wireCall) fill(typ wire.Type, p []byte) {
	c.typ = typ
	switch typ {
	case wire.TypeCheckResp:
		c.decision, c.err = wire.DecodeCheckResp(p)
	default:
		c.raw = append(c.raw[:0], p...)
	}
}

func putWireCall(c *wireCall) { wireCallPool.Put(c) }

// respErr folds error frames and type mismatches into one check.
func (c *wireCall) respErr(want wire.Type) error {
	if c.err != nil {
		return c.err
	}
	if c.typ == wire.TypeError {
		return &ServerError{Msg: string(c.raw)}
	}
	if c.typ != want {
		return fmt.Errorf("wire: server answered %v, want %v", c.typ, want)
	}
	return nil
}

// controlRoundTrip sends one control frame (profile or stats) of type req,
// encoded by enc into a pooled buffer, through send, and decodes the JSON
// document of the resp frame answering it into out. The wire and shm
// clients share it; only their send differs.
func controlRoundTrip(ctx context.Context, send func(context.Context, wire.Type, []byte) (*wireCall, error),
	req, resp wire.Type, enc func([]byte) []byte, out any) error {
	buf := wire.GetBuffer()
	buf.B = enc(buf.B[:0])
	call, err := send(ctx, req, buf.B)
	wire.PutBuffer(buf)
	if err != nil {
		return err
	}
	defer putWireCall(call)
	if err := call.respErr(resp); err != nil {
		return err
	}
	return json.Unmarshal(call.raw, out)
}

// callTable tracks one connection's in-flight requests by id.
type callTable struct {
	// nextID numbers every request on the connection, including the shm
	// reap-role holder's, which never enters pending.
	nextID atomic.Uint64

	// dead is set once err is: the lock-free answer to alive.
	dead atomic.Bool

	mu      sync.Mutex
	pending map[uint64]*wireCall
	err     error
}

func newCallTable() *callTable {
	return &callTable{pending: make(map[uint64]*wireCall)}
}

// alive reports whether the table's connection is still usable, without
// taking the lock: the wire client asks it on every call it routes.
func (t *callTable) alive() bool { return !t.dead.Load() }

// failure returns the terminal error, nil while the connection is usable.
func (t *callTable) failure() error {
	t.mu.Lock()
	err := t.err
	t.mu.Unlock()
	return err
}

// register allocates an id and a pooled completion slot for one request.
// On a poisoned table it returns the terminal error instead.
func (t *callTable) register() (uint64, *wireCall, error) {
	id := t.nextID.Add(1)
	call := getWireCall()
	t.mu.Lock()
	if t.err != nil {
		err := t.err
		t.mu.Unlock()
		putWireCall(call)
		return 0, nil, err
	}
	t.pending[id] = call
	t.mu.Unlock()
	return id, call, nil
}

// withdraw removes a call from the table on its caller's behalf. False
// means the receiver (complete, or fail during teardown) claimed it first:
// its completion signal is coming and must be consumed before the slot is
// pooled, or the next round trip on it would return at once.
func (t *callTable) withdraw(id uint64) (mine bool) {
	t.mu.Lock()
	_, mine = t.pending[id]
	delete(t.pending, id)
	t.mu.Unlock()
	return mine
}

// drop deregisters a call whose request never made it out (send failure)
// and pools its slot.
func (t *callTable) drop(id uint64, call *wireCall) {
	if !t.withdraw(id) {
		<-call.done
	}
	putWireCall(call)
}

// await blocks until the call completes or ctx fires. The returned
// wireCall (nil on ctx error) must go back via putWireCall.
func (t *callTable) await(ctx context.Context, id uint64, call *wireCall) (*wireCall, error) {
	select {
	case <-call.done:
		return call, nil
	case <-ctx.Done():
		if !t.withdraw(id) {
			// Claimed between ctx firing and the deregister: the call
			// completed after all.
			<-call.done
			return call, nil
		}
		putWireCall(call)
		return nil, ctx.Err()
	}
}

// complete routes one response to its waiting caller (see fill). Unmatched
// ids are dropped: the caller cancelled.
func (t *callTable) complete(typ wire.Type, id uint64, p []byte) {
	t.mu.Lock()
	call := t.pending[id]
	delete(t.pending, id)
	t.mu.Unlock()
	if call == nil {
		return
	}
	call.fill(typ, p)
	call.done <- struct{}{}
}

// fail poisons the table and completes every in-flight request with the
// terminal error.
func (t *callTable) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
		t.dead.Store(true)
	}
	calls := make([]*wireCall, 0, len(t.pending))
	for id, call := range t.pending {
		call.err = t.err
		calls = append(calls, call)
		delete(t.pending, id)
	}
	t.mu.Unlock()
	for _, call := range calls {
		call.done <- struct{}{}
	}
}
