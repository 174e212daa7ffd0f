package server

// The shared-memory front end: submission/completion rings over an mmap'd
// file (see internal/shm) for co-located clients, the tier below the TCP
// wire protocol. Steady-state checks move through shared memory without
// entering the kernel; the kernel is involved only for the handshake, the
// control plane, and doorbells when a side has parked.
//
// Each connection starts life as a unix-socket stream in dir/dracod.sock
// speaking ordinary wire frames. A TypeRingReq frame upgrades it: the
// server creates a region file, answers TypeRingResp with its path, and
// from then on the hot path (check and batch frames) flows through the
// rings while the socket stays up for three jobs:
//
//   - control plane: profile swaps and stats keep using wire frames over
//     the socket — their JSON payloads do not fit fixed-size slots, and
//     they are off the hot path by construction;
//   - handshake: the 16-byte ring request carries the requested geometry
//     and the client's capabilities word; the server intersects it with
//     its own, picks the doorbell (futex where both sides have it, the
//     socket byte otherwise), and records the choice in the region header.
//     Socket doorbells are TypeWake frames on this socket; futex doorbells
//     need no socket traffic at all;
//   - liveness: when the socket drops, both sides tear the rings down.
//
// Frames consumed from the submission ring feed the same session layer as
// TCP (session.go): frame dispatch, tenant resolution, and response routing
// are shared; only the responder differs — the ring consumer publishes each
// decision into the completion ring itself and rings the doorbell when the
// client's completion consumer (whichever caller is reaping) has parked.
//
// Ordering: the socket and the rings are independent streams, so control
// frames are ordered only against other socket frames. A client that wants
// a profile swap to settle its in-flight ring checks should quiesce them
// first (the client in internal/server/client does not need to: decisions
// carry ids).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"draco/internal/core"
	"draco/internal/shm"
	"draco/internal/wire"
)

// ShmSocketName is the control-socket filename inside the shm directory.
const ShmSocketName = "dracod.sock"

// ShmServer serves the shared-memory transport for a Server, one region
// (ring pair) per connection.
type ShmServer struct {
	hub *SessionHub
	dir string
	ln  net.Listener

	ringSeq atomic.Uint64

	mu     sync.Mutex
	conns  map[*shmConn]struct{}
	closed bool
}

// NewShmServer builds the shm front end over the hub's session layer,
// listening on dir/dracod.sock and placing region files in dir. The
// directory is created (mode 0700) if missing; a stale socket from a dead
// server is replaced. Every connection is offered PlatformCaps.
func (h *SessionHub) NewShmServer(dir string) (*ShmServer, error) {
	if !shm.Supported() {
		return nil, shm.ErrUnsupported
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, ShmSocketName)
	if err := os.Remove(sock); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	return &ShmServer{
		hub:   h,
		dir:   dir,
		ln:    ln,
		conns: make(map[*shmConn]struct{}),
	}, nil
}

// Addr returns the control socket path.
func (ss *ShmServer) Addr() string { return filepath.Join(ss.dir, ShmSocketName) }

// Dir returns the shm directory clients dial.
func (ss *ShmServer) Dir() string { return ss.dir }

// Serve accepts shm connections until the listener fails or the server is
// closed. It blocks; run it in a goroutine next to the other front ends.
func (ss *ShmServer) Serve() error {
	for {
		nc, err := ss.ln.Accept()
		if err != nil {
			ss.mu.Lock()
			closed := ss.closed
			ss.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := &shmConn{
			srv:  ss,
			nc:   nc,
			w:    wire.NewWriter(nc),
			dead: make(chan struct{}),
		}
		ss.mu.Lock()
		if ss.closed {
			ss.mu.Unlock()
			nc.Close()
			return nil
		}
		ss.conns[c] = struct{}{}
		ss.mu.Unlock()
		ss.hub.s.metrics.ShmConnsTotal.Add(1)
		ss.hub.s.metrics.ShmConnsActive.Add(1)
		go c.readSocket()
	}
}

// Close shuts the front end: the listener, every connection, and the
// control socket go away; region files are unlinked as their connections
// tear down.
func (ss *ShmServer) Close() error {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil
	}
	ss.closed = true
	conns := make([]*shmConn, 0, len(ss.conns))
	for c := range ss.conns {
		conns = append(conns, c)
	}
	ss.mu.Unlock()
	ss.ln.Close()
	for _, c := range conns {
		c.teardown()
	}
	return nil
}

// shmConn is one shm connection: the control socket plus, after the
// handshake, a mapped region, its doorbells, and a consumer goroutine.
type shmConn struct {
	srv  *ShmServer
	nc   net.Conn
	w    *wire.Writer
	dead chan struct{} // closed once on teardown

	// Ring state, published under srv.mu by the handshake, and only while
	// dead is still open (teardown may run from another goroutine while
	// the handshake is in flight).
	reg      *shm.Region
	path     string
	resp     *shmResponder
	subDoor  *shm.Doorbell // server sleeps on it (submission consumer)
	compDoor *shm.Doorbell // server rings it (completion producer)
	spin     *shm.SpinController
	ringID   uint64
	kind     shm.DoorbellKind
	ringDone chan struct{} // closed when consumeRing exits

	closeOnce sync.Once
}

// teardown closes everything exactly once: the socket (stopping the read
// loop), the rings (unblocking ring spins), and the doorbells (releasing
// a parked consumer promptly). The mapping and the region file are
// released only after the ring consumer has exited and responder
// publishes are excluded — unmapping under a live ring loop is a fault.
func (c *shmConn) teardown() {
	c.closeOnce.Do(func() {
		close(c.dead)
		c.nc.Close()
		ss := c.srv
		ss.mu.Lock()
		delete(ss.conns, c)
		reg, path, resp, ringDone := c.reg, c.path, c.resp, c.ringDone
		subDoor, compDoor, spin, ringID, kind := c.subDoor, c.compDoor, c.spin, c.ringID, c.kind
		ss.mu.Unlock()
		m := ss.hub.s.metrics
		if reg != nil {
			reg.Invalidate()
			subDoor.Close()
			compDoor.Close()
			go func() {
				<-ringDone
				resp.mu.Lock()
				reg.Close()
				resp.mu.Unlock()
				os.Remove(path)
				m.dropShmRing(ringID, spin, kind)
			}()
		}
		m.ShmConnsActive.Add(-1)
	})
}

// sendError answers a socket request with an error frame.
func (c *shmConn) sendError(id uint64, err error) {
	c.srv.hub.s.metrics.WireErrors.Add(1)
	c.w.Send(wire.TypeError, id, []byte(err.Error()))
}

// readSocket runs the control-plane read loop: handshake, doorbells, and
// profile/stats frames, each a plain wire frame on the unix socket.
func (c *shmConn) readSocket() {
	defer c.teardown()
	r := wire.NewReader(c.nc)
	ctrl := c.srv.hub.newSession(wireResponder{w: c.w})
	for {
		h, p, err := r.Next()
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, net.ErrClosed) {
				c.srv.hub.s.metrics.WireFrameErrors.Add(1)
				log.Printf("dracod: shm control socket: %v", err)
			}
			ctrl.drain()
			return
		}
		switch h.Type {
		case wire.TypeRingReq:
			if err := c.handleRingReq(h.ID, p); err != nil {
				c.sendError(h.ID, err)
			}
		case wire.TypeWake:
			// Client produced into an empty submission ring while our
			// consumer was parked: unpark it. The doorbell coalesces
			// redundant wakes — exactly what we want. Only this goroutine
			// writes subDoor, so it reads it without the lock.
			if c.subDoor != nil {
				c.subDoor.Notify()
			}
		default:
			ctrl.handleFrame(h.Type, h.ID, p)
			if r.Buffered() == 0 {
				ctrl.drain()
			}
		}
	}
}

// handleRingReq establishes this connection's ring pair: pick the
// doorbell, create the region file, publish the ring state unless the
// connection has died meanwhile, start the submission consumer, and answer
// with the region's path.
func (c *shmConn) handleRingReq(id uint64, p []byte) error {
	if c.reg != nil {
		return errors.New("shm: connection already has a ring pair")
	}
	l, clientCaps, err := parseRingReq(p)
	if err != nil {
		return err
	}
	ss := c.srv
	kind := shm.PickDoorbell(clientCaps, shm.PlatformCaps())
	l.Doorbell = kind

	ringID := ss.ringSeq.Add(1)
	path := filepath.Join(ss.dir, fmt.Sprintf("ring-%d.shm", ringID))
	reg, err := shm.CreateFile(path, l)
	if err != nil {
		return err
	}
	subDoor, err := shm.NewDoorbell(kind, reg.Submit, shm.DoorbellConfig{})
	var compDoor *shm.Doorbell
	if err == nil {
		compDoor, err = shm.NewDoorbell(kind, reg.Complete, shm.DoorbellConfig{
			SocketRing: func() { c.w.Send(wire.TypeWake, 0, nil) },
		})
	}
	if err == nil {
		// A teardown that already ran saw no region and released nothing:
		// publishing now would leak the mapping, the file and the gauge.
		ss.mu.Lock()
		select {
		case <-c.dead:
			err = errors.New("shm: connection closed during the handshake")
		default:
			c.reg, c.path, c.ringID, c.kind = reg, path, ringID, kind
			c.subDoor, c.compDoor = subDoor, compDoor
			c.spin = shm.NewSpinController()
			c.resp = &shmResponder{conn: c, ring: reg.Complete}
			c.ringDone = make(chan struct{})
		}
		ss.mu.Unlock()
	}
	if err != nil {
		reg.Close()
		os.Remove(path)
		return err
	}
	m := ss.hub.s.metrics
	m.ShmRings.Add(1)
	m.addShmRing(ringID, c.spin, kind)
	go c.consumeRing()
	return c.w.Send(wire.TypeRingResp, id, []byte(path))
}

// parseRingReq decodes the ring request: exactly 16 bytes, three uint32
// geometry words (slot size, submission slots, completion slots; each 0
// for the default) and the client's capabilities word.
func parseRingReq(p []byte) (shm.Layout, shm.Caps, error) {
	l := shm.DefaultLayout()
	if len(p) != 16 {
		return l, 0, errors.New("shm: ring request payload must be 16 bytes")
	}
	get := func(off int, def int) int {
		if v := binary.LittleEndian.Uint32(p[off:]); v != 0 {
			return int(v)
		}
		return def
	}
	l.SlotSize = get(0, l.SlotSize)
	l.SubmitSlots = get(4, l.SubmitSlots)
	l.CompleteSlots = get(8, l.CompleteSlots)
	caps := shm.CapDoorbellSocket | shm.Caps(binary.LittleEndian.Uint32(p[12:]))
	return l, caps, l.Validate()
}

// consumeRing is the submission-ring consumer: the shm analog of the wire
// read loop, run through the shared ConsumeLoop (park protocol, adaptive
// spin budget, doorbell). Frames dispatch into a session whose responder
// publishes to the completion ring; an empty ring after a burst is the
// drain signal that rings the client's doorbell.
func (c *shmConn) consumeRing() {
	defer close(c.ringDone)
	m := c.srv.hub.s.metrics
	sess := c.srv.hub.newSession(c.resp)
	loop := &shm.ConsumeLoop{
		Ring: c.reg.Submit,
		Door: c.subDoor,
		Spin: c.spin,
		Stop: c.dead,
		Handle: func(f *shm.Frame) {
			m.ShmFrames.Add(1)
			sess.handleFrame(wire.Type(f.Type), f.ID, f.Payload)
		},
		Drained: sess.drain,
	}
	if err := loop.Run(); err != nil {
		// Torn or corrupt slot state: the peer cannot be resynchronized.
		m.ShmFrameErrors.Add(1)
		log.Printf("dracod: shm ring: %v", err)
		c.teardown()
	}
}

// shmResponder publishes responses into the connection's completion ring.
// The ring consumer is the only producer; it publishes under a read-lock
// because the write-lock belongs to teardown, which must exclude it before
// unmapping. A full ring makes Claim spin — the transport's backpressure,
// same as a wire responder blocked on TCP flow control — and stalls this
// connection's consumer only.
type shmResponder struct {
	conn *shmConn
	mu   sync.RWMutex
	ring *shm.Ring
}

// publish claims a slot, encodes via fill (which appends to the slot's own
// buffer — zero copy), and publishes it.
func (r *shmResponder) publish(t wire.Type, id uint64, fill func([]byte) []byte) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// The closed check shares the lock with teardown's deferred unmap, so
	// a publish never touches the mapping after it is gone.
	if r.ring.Closed() {
		return
	}
	pos, buf := r.ring.Claim()
	if buf == nil {
		return // ring closed mid-response; the connection is tearing down
	}
	if err := r.ring.Publish(pos, uint8(t), id, fill(buf)); err != nil {
		// Only ErrFrameTooBig reaches here. The MPSC claim contract is
		// hole-free — this same slot must still publish — so the response
		// is replaced in place by an error frame (which always fits) and
		// the id still completes.
		r.ring.Publish(pos, uint8(wire.TypeError), id, append(buf[:0], err.Error()...))
	}
}

func (r *shmResponder) sendCheck(id uint64, d core.Decision) {
	r.publish(wire.TypeCheckResp, id, func(buf []byte) []byte {
		return wire.AppendCheckResp(buf, d)
	})
}

func (r *shmResponder) send(t wire.Type, id uint64, p []byte) {
	r.publish(t, id, func(buf []byte) []byte {
		return append(buf, p...)
	})
	r.doorbell()
}

// flush rings the client's doorbell if its consumer has parked. Publication
// itself needs no flushing — slots are visible at Publish — so this is the
// whole "push buffered responses" obligation for shm.
func (r *shmResponder) flush() { r.doorbell() }

func (r *shmResponder) doorbell() {
	r.mu.RLock()
	if !r.ring.Closed() && r.ring.ConsumerParked() {
		r.conn.srv.hub.s.metrics.ShmWakes.Add(1)
		r.conn.compDoor.Ring()
	}
	r.mu.RUnlock()
}
