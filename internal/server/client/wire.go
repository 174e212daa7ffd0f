package client

// Wire-protocol client: persistent pipelined TCP connections speaking the
// internal/wire framing. Unlike the HTTP client, many requests may be in
// flight per connection — each carries a request id, responses are matched
// by id (through the shared callTable in calls.go), and a background
// reader per connection dispatches completions. A small connection pool
// spreads concurrent callers so one slow response never
// heads-of-line-blocks the pool.

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"draco/internal/engine"
	"draco/internal/server"
	"draco/internal/wire"
)

// WireOptions configures DialWire.
type WireOptions struct {
	// Conns is the connection-pool size (0 = 2). Concurrent callers are
	// spread round-robin; each connection pipelines its callers' requests.
	Conns int
	// DialTimeout bounds each connection attempt (0 = 5s).
	DialTimeout time.Duration
}

// Wire is a binary-protocol client for one dracod wire listener.
type Wire struct {
	addr  string
	conns []*wireConn
	next  atomic.Uint64
}

// ServerError is a request-level failure reported by the server in an
// error frame (the connection stays usable).
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "dracod: " + e.Msg }

// DialWire connects a pooled wire client to addr (host:port).
func DialWire(addr string, opts WireOptions) (*Wire, error) {
	n := opts.Conns
	if n <= 0 {
		n = 2
	}
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	w := &Wire{addr: addr, conns: make([]*wireConn, 0, n)}
	for i := 0; i < n; i++ {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			// The protocol batches its own writes; Nagle only adds latency.
			tc.SetNoDelay(true)
		}
		c := &wireConn{
			nc:  nc,
			w:   wire.NewWriter(nc),
			tab: newCallTable(),
		}
		w.conns = append(w.conns, c)
		go c.readLoop()
	}
	return w, nil
}

// Close closes every pooled connection; in-flight requests fail.
func (w *Wire) Close() error {
	for _, c := range w.conns {
		if c != nil {
			c.nc.Close()
		}
	}
	return nil
}

// pick selects a connection round-robin, preferring live ones.
func (w *Wire) pick() *wireConn {
	start := w.next.Add(1)
	for i := 0; i < len(w.conns); i++ {
		c := w.conns[(start+uint64(i))%uint64(len(w.conns))]
		if c.tab.alive() {
			return c
		}
	}
	return w.conns[start%uint64(len(w.conns))]
}

// Check validates one system call over the wire.
func (w *Wire) Check(ctx context.Context, tenant string, sid int, args engine.Args) (engine.Decision, error) {
	if len(tenant) > wire.MaxTenant {
		return engine.Decision{}, fmt.Errorf("wire: tenant name exceeds %d bytes", wire.MaxTenant)
	}
	c := w.pick()
	buf := wire.GetBuffer()
	buf.B = wire.AppendCheckReq(buf.B[:0], tenant, engine.Call{SID: sid, Args: args})
	call, err := c.roundTrip(ctx, wire.TypeCheckReq, buf.B)
	wire.PutBuffer(buf)
	if err != nil {
		return engine.Decision{}, err
	}
	defer putWireCall(call)
	if err := call.respErr(wire.TypeCheckResp); err != nil {
		return engine.Decision{}, err
	}
	return call.decision, nil
}

// CheckBatch validates a batch in one frame, reusing dst when it has
// capacity. At most wire.MaxBatch calls per invocation.
func (w *Wire) CheckBatch(ctx context.Context, tenant string, calls []engine.Call, dst []engine.Decision) ([]engine.Decision, error) {
	if len(tenant) > wire.MaxTenant {
		return nil, fmt.Errorf("wire: tenant name exceeds %d bytes", wire.MaxTenant)
	}
	if len(calls) > wire.MaxBatch {
		return nil, fmt.Errorf("wire: batch of %d exceeds limit %d", len(calls), wire.MaxBatch)
	}
	c := w.pick()
	buf := wire.GetBuffer()
	buf.B = wire.AppendBatchReq(buf.B[:0], tenant, calls)
	call, err := c.roundTrip(ctx, wire.TypeBatchReq, buf.B)
	wire.PutBuffer(buf)
	if err != nil {
		return nil, err
	}
	defer putWireCall(call)
	if err := call.respErr(wire.TypeBatchResp); err != nil {
		return nil, err
	}
	return wire.DecodeBatchResp(call.raw, dst[:0])
}

// PutProfile uploads a Docker-format JSON profile over the wire,
// hot-swapping the tenant's policy. engineName must be "" or
// server.DefaultEngine.
func (w *Wire) PutProfile(ctx context.Context, tenant, engineName string, profileJSON []byte) (server.ProfileResponse, error) {
	var out server.ProfileResponse
	if len(tenant) > wire.MaxTenant {
		return out, fmt.Errorf("wire: tenant name exceeds %d bytes", wire.MaxTenant)
	}
	err := controlRoundTrip(ctx, w.pick().roundTrip, wire.TypeProfileReq, wire.TypeProfileResp,
		func(b []byte) []byte { return wire.AppendProfileReq(b, tenant, engineName, profileJSON) }, &out)
	return out, err
}

// Stats fetches a tenant's checker statistics over the wire.
func (w *Wire) Stats(ctx context.Context, tenant string) (server.StatsResponse, error) {
	var out server.StatsResponse
	err := controlRoundTrip(ctx, w.pick().roundTrip, wire.TypeStatsReq, wire.TypeStatsResp,
		func(b []byte) []byte { return wire.AppendStatsReq(b, tenant) }, &out)
	return out, err
}

// --- connection -------------------------------------------------------------

// wireConn is one pooled connection: a shared writer, a reader goroutine,
// and the in-flight call table.
type wireConn struct {
	nc  net.Conn
	w   *wire.Writer
	tab *callTable
}

// roundTrip registers a request, sends its frame, and waits for the
// response or ctx. The returned wireCall must go back via putWireCall.
func (c *wireConn) roundTrip(ctx context.Context, t wire.Type, payload []byte) (*wireCall, error) {
	id, call, err := c.tab.register()
	if err != nil {
		return nil, err
	}
	if err := c.w.Send(t, id, payload); err != nil {
		c.tab.drop(id, call)
		return nil, err
	}
	return c.tab.await(ctx, id, call)
}

// readLoop dispatches responses to their waiting callers until the
// connection dies, then fails every remaining in-flight request.
func (c *wireConn) readLoop() {
	r := wire.NewReader(c.nc)
	for {
		h, p, err := r.Next()
		if err != nil {
			c.tab.fail(fmt.Errorf("wire: connection lost: %w", err))
			c.nc.Close()
			return
		}
		c.tab.complete(h.Type, h.ID, p)
	}
}
