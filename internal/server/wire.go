package server

// The wire front end: dracod's length-prefixed binary protocol served over
// persistent, pipelined TCP connections (see internal/wire for framing).
//
// Each connection's read loop is its dispatch goroutine: a frame is decoded,
// checked, and answered in place through the session layer (session.go,
// shared with the shm front end). Responses carry the request id and are
// produced in request order; single-check responses gather in the
// connection's write buffer and go out when the read buffer empties — the
// client's pipelined burst is consumed — so a lone synchronous caller sees
// one write per check and a pipelining caller one write per burst.
//
// This file keeps only what is TCP-specific: listeners, connection
// lifecycle, and the read loop with its buffered-bytes drain signal.

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"

	"draco/internal/core"
	"draco/internal/wire"
)

// WireServer serves the binary protocol for a Server. One WireServer may
// serve many listeners; all share the tenant set and metrics.
type WireServer struct {
	hub *SessionHub

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	listeners map[net.Listener]struct{}
	closed    bool
}

// NewWireServer builds a wire front end over the hub's session layer.
func (h *SessionHub) NewWireServer() *WireServer {
	return &WireServer{
		hub:       h,
		conns:     make(map[net.Conn]struct{}),
		listeners: make(map[net.Listener]struct{}),
	}
}

// Hub returns the session hub this front end serves through.
func (ws *WireServer) Hub() *SessionHub { return ws.hub }

// Serve accepts wire connections on ln until the listener fails or the
// server is closed. It blocks; run it in a goroutine next to the HTTP
// server.
func (ws *WireServer) Serve(ln net.Listener) error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		return errors.New("wire: server closed")
	}
	ws.listeners[ln] = struct{}{}
	ws.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			ws.mu.Lock()
			closed := ws.closed
			delete(ws.listeners, ln)
			ws.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			nc.Close()
			return nil
		}
		ws.conns[nc] = struct{}{}
		ws.mu.Unlock()
		ws.hub.s.metrics.WireConnsTotal.Add(1)
		ws.hub.s.metrics.WireConnsActive.Add(1)
		go ws.serveConn(nc)
	}
}

// Close shuts the wire front end: listeners stop accepting and open
// connections are closed.
func (ws *WireServer) Close() error {
	ws.mu.Lock()
	ws.closed = true
	for ln := range ws.listeners {
		ln.Close()
	}
	for nc := range ws.conns {
		nc.Close()
	}
	ws.mu.Unlock()
	return nil
}

// wireResponder answers through a wire.Writer.
type wireResponder struct{ w *wire.Writer }

func (r wireResponder) sendCheck(id uint64, d core.Decision)  { r.w.SendCheckResp(id, d) }
func (r wireResponder) send(t wire.Type, id uint64, p []byte) { r.w.Send(t, id, p) }
func (r wireResponder) flush()                                { r.w.Flush() }

// serveConn runs one connection's read loop.
func (ws *WireServer) serveConn(nc net.Conn) {
	defer func() {
		ws.mu.Lock()
		delete(ws.conns, nc)
		ws.mu.Unlock()
		nc.Close()
		ws.hub.s.metrics.WireConnsActive.Add(-1)
	}()
	r := wire.NewReader(nc)
	sess := ws.hub.newSession(wireResponder{w: wire.NewWriter(nc)})
	for {
		h, p, err := r.Next()
		if err != nil {
			if err != io.EOF {
				// Framing is unrecoverable: the stream position is lost.
				ws.hub.s.metrics.WireFrameErrors.Add(1)
				if err != io.ErrUnexpectedEOF && !errors.Is(err, net.ErrClosed) {
					log.Printf("dracod: wire %s: %v", nc.RemoteAddr(), err)
				}
			}
			sess.drain()
			return
		}
		sess.handleFrame(h.Type, h.ID, p)
		// Drain signal: the client's pipelined burst is fully consumed, so
		// push out the responses it produced.
		if r.Buffered() == 0 {
			sess.drain()
		}
	}
}
