package server

// The transport-independent session layer: frame dispatch, tenant
// resolution, and response routing shared by the TCP wire protocol and the
// shared-memory rings, so both front ends are one check path.
//
// A single-check frame runs to completion on the connection's own dispatch
// goroutine: decode, resolve the tenant through the session-local cache,
// check on the tenant's checker, hand the decision to the responder.
// Nothing is queued and no state is shared between connections, which
// gives two guarantees by construction:
//
//   - ordering: responses on a connection are produced in the order its
//     frames were consumed, so a profile or stats frame sees every check
//     that preceded it on the same stream;
//   - isolation: only a connection's own dispatch goroutine writes to its
//     responder, so a peer that stops reading (a full TCP window, a full
//     completion ring) blocks that goroutine and nobody else's.
//
// Aggregation is the caller's choice (client.Batcher, TypeBatchReq frames).
// The split of responsibilities:
//
//   - SessionHub binds the front ends to one Server; transports create
//     sessions from it.
//   - session is one connection's transport-agnostic state: the tenant
//     cache and the scratch buffers for batch frames. Transports own the
//     framing (wire frame, ring slot) and hand the session (type, id,
//     payload) triples.
//   - responder abstracts the response channel: a wire.Writer for TCP, a
//     completion-ring producer for shm.
//
// The session metrics keep their wire-era names (WireChecks, WireFlushes,
// WireCheckLatency): they count checks across both transports.

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"draco/internal/concurrent"
	"draco/internal/core"
	"draco/internal/wire"
)

// SessionOptions is empty: the session layer has nothing to configure. The
// type stays so existing NewSessionHub call sites keep compiling.
type SessionOptions struct{}

// SessionHub is the shared session layer over one Server. Transports create
// sessions from it.
type SessionHub struct {
	s *Server
}

// NewSessionHub builds the session layer over s.
func (s *Server) NewSessionHub(SessionOptions) *SessionHub {
	return &SessionHub{s: s}
}

// responder is a session's response channel. sendCheck buffers one
// single-check decision; send frames any other response; flush pushes
// buffered responses to the peer. Only the session's dispatch goroutine
// calls it.
type responder interface {
	sendCheck(id uint64, d core.Decision)
	send(t wire.Type, id uint64, payload []byte)
	flush()
}

// session is one connection's transport-independent state, owned by the
// transport's dispatch goroutine.
type session struct {
	hub  *SessionHub
	resp responder

	// Tenant cache: single-tenant connections (the common case) resolve
	// the tenant without a map lookup or allocation. nameBuf is the
	// miss path's session-owned copy of the name, swapped into lastName
	// once it resolves.
	lastName []byte
	lastTen  *tenant
	nameBuf  []byte

	// unflushed reports single-check responses handed to the responder
	// since the last drain.
	unflushed bool

	// Batch-frame scratch, reused across frames.
	calls   []concurrent.Call
	outs    []core.Decision
	respBuf []byte
}

// newSession creates a session answering through resp.
func (h *SessionHub) newSession(resp responder) *session {
	return &session{hub: h, resp: resp}
}

// handleFrame dispatches one request frame. Transports call this with the
// frame's payload, which the session only reads during the call (payloads
// may alias transport buffers that are recycled after return).
func (c *session) handleFrame(t wire.Type, id uint64, p []byte) {
	switch t {
	case wire.TypeCheckReq:
		c.handleCheck(id, p)
	case wire.TypeBatchReq:
		c.handleBatch(id, p)
	case wire.TypeProfileReq:
		c.handleProfile(id, p)
	case wire.TypeStatsReq:
		c.handleStats(id, p)
	default:
		c.sendError(id, fmt.Errorf("unexpected %v frame", t))
	}
}

// sendError answers a request with an error frame.
func (c *session) sendError(id uint64, err error) {
	c.hub.s.metrics.WireErrors.Add(1)
	buf := wire.GetBuffer()
	buf.B = append(buf.B[:0], err.Error()...)
	c.resp.send(wire.TypeError, id, buf.B)
	wire.PutBuffer(buf)
}

// resolve maps a tenant name (aliasing the frame payload) to its tenant,
// through the session-local cache on repeats. On shm the name is a slot
// the client can rewrite at any moment, so each path reads it once: the
// hit path in one compare, the miss path in one copy that alone is then
// looked up and cached.
func (c *session) resolve(name []byte) (*tenant, error) {
	if c.lastTen != nil && bytes.Equal(name, c.lastName) {
		return c.lastTen, nil
	}
	c.nameBuf = append(c.nameBuf[:0], name...)
	s := c.hub.s
	s.mu.RLock()
	t := s.tenants[string(c.nameBuf)] // no-copy map lookup
	s.mu.RUnlock()
	if t == nil {
		// Slow path: auto-provision the tenant when a default profile is
		// configured.
		var err error
		t, err = s.provisionTenant(string(c.nameBuf))
		if err != nil {
			return nil, err
		}
	}
	c.lastName, c.nameBuf = c.nameBuf, c.lastName
	c.lastTen = t
	return t, nil
}

// drain pushes out any response bytes still buffered on the responder.
// Transports call it when the peer's burst is fully consumed.
func (c *session) drain() {
	if c.unflushed {
		c.unflushed = false
		c.hub.s.metrics.WireFlushes.Add(1)
	}
	c.resp.flush()
}

func (c *session) handleCheck(id uint64, p []byte) {
	start := time.Now()
	name, call, err := wire.DecodeCheckReq(p)
	if err != nil {
		c.sendError(id, err)
		return
	}
	t, err := c.resolve(name)
	if err != nil {
		c.sendError(id, err)
		return
	}
	d := t.chk.CheckDecision(call.SID, &call.Args)
	// Count before publishing: a shm client spinning on the completion
	// ring can observe the response — and read the metrics — the moment
	// the frame lands, so counters must already cover it.
	m := c.hub.s.metrics
	m.WireChecks.Add(1)
	c.resp.sendCheck(id, d)
	c.unflushed = true
	m.WireCheckLatency.Observe(time.Since(start))
}

func (c *session) handleBatch(id uint64, p []byte) {
	start := time.Now()
	name, seq, err := wire.DecodeBatchReq(p)
	if err != nil {
		c.sendError(id, err)
		return
	}
	t, err := c.resolve(name)
	if err != nil {
		c.sendError(id, err)
		return
	}
	c.calls = seq.AppendTo(c.calls[:0])
	c.outs = t.chk.CheckBatchDecisions(c.calls, c.outs[:0])
	c.respBuf = wire.AppendBatchResp(c.respBuf[:0], c.outs)
	// Count before publishing, as in handleCheck.
	m := c.hub.s.metrics
	m.WireBatchCalls.Add(uint64(seq.Len()))
	c.resp.send(wire.TypeBatchResp, id, c.respBuf)
	m.WireBatchLatency.Observe(time.Since(start))
}

func (c *session) handleProfile(id uint64, p []byte) {
	name, engName, profileJSON, err := wire.DecodeProfileReq(p)
	if err != nil {
		c.sendError(id, err)
		return
	}
	resp, err := c.hub.s.putProfile(string(name), string(engName), bytes.NewReader(profileJSON))
	if err != nil {
		c.sendError(id, err)
		return
	}
	c.sendJSON(wire.TypeProfileResp, id, resp)
}

func (c *session) handleStats(id uint64, p []byte) {
	name, err := wire.DecodeStatsReq(p)
	if err != nil {
		c.sendError(id, err)
		return
	}
	resp, err := c.hub.s.stats(string(name))
	if err != nil {
		c.sendError(id, err)
		return
	}
	c.sendJSON(wire.TypeStatsResp, id, resp)
}

// sendJSON frames a control-plane response as a JSON payload.
func (c *session) sendJSON(t wire.Type, id uint64, v any) {
	payload, ok := c.hub.s.encodeJSON(v)
	if !ok {
		c.sendError(id, errors.New("response encoding failed"))
		return
	}
	c.resp.send(t, id, payload)
}
