package shm

// Doorbell abstraction: how a producer wakes a parked consumer. Two
// mechanisms, picked by platform at handshake via a capabilities word and
// recorded in the region header so both sides agree:
//
//   - DoorbellFutex (Linux): the consumer FUTEX_WAITs on a 32-bit word in
//     the ring header — shared memory, so a FUTEX_WAKE from the peer
//     process lands directly. The producer-side fast path is free: an
//     unparked consumer costs no syscall at all, a parked one costs
//     exactly one FUTEX_WAKE.
//   - DoorbellSocket (everywhere else): a TypeWake frame on the session's
//     unix control socket, relayed to the consumer through a channel by
//     the socket reader goroutine. Two kernel crossings and a goroutine
//     hop per wake, but it works everywhere the transport compiles.
//
// A Doorbell value is one ring direction's wakeup endpoint: the side
// that consumes the ring Sleeps on it, the side that produces Rings it.
// Both processes hold a Doorbell for each ring, built from the same
// negotiated kind.

import (
	"fmt"
	"time"
)

// DoorbellKind identifies a wakeup mechanism. The numeric values are the
// header encoding — do not reorder.
type DoorbellKind uint8

const (
	// DoorbellSocket is the portable control-socket byte.
	DoorbellSocket DoorbellKind = 0
	// DoorbellFutex is a shared futex word in the ring header (Linux).
	DoorbellFutex DoorbellKind = 1

	numDoorbellKinds = 2
)

// String names the kind as used in metrics labels.
func (k DoorbellKind) String() string {
	switch k {
	case DoorbellSocket:
		return "socket"
	case DoorbellFutex:
		return "futex"
	default:
		return fmt.Sprintf("doorbell(%d)", uint8(k))
	}
}

// Caps is the capabilities word exchanged in the ring handshake: the
// client advertises what it can do, the server intersects with its own
// set and picks the best mechanism both sides support. Unknown bits are
// dropped by the intersection.
type Caps uint32

const (
	// CapDoorbellSocket: the control-socket wake byte (always supported).
	CapDoorbellSocket Caps = 1 << 0
	// CapDoorbellFutex: FUTEX_WAIT/WAKE on the shared ring-header word.
	CapDoorbellFutex Caps = 1 << 1
	// CapDoorbellEventfd is reserved: no build advertises it and no
	// server picks it.
	CapDoorbellEventfd Caps = 1 << 2
)

// Has reports whether every bit of want is set.
func (c Caps) Has(want Caps) bool { return c&want == want }

// PlatformCaps returns the capability set this build supports: the
// socket doorbell everywhere, the futex where the kernel provides it.
func PlatformCaps() Caps { return CapDoorbellSocket | platformCaps }

// PickDoorbell selects the best doorbell both capability sets support:
// futex when both have it, the socket byte otherwise.
func PickDoorbell(client, server Caps) DoorbellKind {
	if (client & server).Has(CapDoorbellFutex) {
		return DoorbellFutex
	}
	return DoorbellSocket
}

// doorbellWaitMax bounds the futex sleep (the in-process socket relay
// needs no bound). The park protocol never relies on the timeout for
// correctness — the producer always rings after publishing to a parked
// consumer, and teardown rings via Close — so the timeout is only
// insurance against a peer that died without ringing, turning a
// lost-wakeup bug into a latency blip instead of a hang. Keep it long:
// every expiry wakes an OS thread just to re-park, so short timeouts make
// idle connections tax busy ones on small hosts.
const doorbellWaitMax = time.Second

// Doorbell is one ring direction's wakeup mechanism. The consumer of the
// ring calls Prepare/Sleep around its park; the producer calls Ring
// after publishing to a parked consumer. Notify injects a wake locally
// (the socket reader relaying a TypeWake frame, or a test injecting
// spurious wakes).
type Doorbell struct {
	kind DoorbellKind
	ring *Ring

	// Socket kind: producer-side sender and consumer-side relay.
	sockRing func() // sends the TypeWake frame to the peer
	notify   chan struct{}

	stop chan struct{}
}

// DoorbellConfig carries the kind-specific pieces a Doorbell needs.
type DoorbellConfig struct {
	// SocketRing sends a wake frame to the peer (DoorbellSocket producers).
	SocketRing func()
}

// NewDoorbell builds the doorbell for ring r using kind k. It fails when
// the platform lacks the mechanism (use PlatformCaps to avoid that).
func NewDoorbell(k DoorbellKind, r *Ring, cfg DoorbellConfig) (*Doorbell, error) {
	switch k {
	case DoorbellSocket:
	case DoorbellFutex:
		if !platformCaps.Has(CapDoorbellFutex) {
			return nil, fmt.Errorf("%w: futex doorbell", ErrUnsupported)
		}
	default:
		return nil, fmt.Errorf("%w: doorbell kind %d", ErrBadVersion, k)
	}
	return &Doorbell{
		kind:     k,
		ring:     r,
		sockRing: cfg.SocketRing,
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}, nil
}

// Kind returns the doorbell's mechanism.
func (d *Doorbell) Kind() DoorbellKind { return d.kind }

// Ring wakes the peer's parked consumer. Call it only after observing
// ConsumerParked — the whole point of the protocol is that the unparked
// fast path costs nothing.
func (d *Doorbell) Ring() {
	if d.kind == DoorbellFutex {
		d.futexRing()
	} else if d.sockRing != nil {
		d.sockRing()
	}
}

// futexRing bumps the shared word and wakes its waiters.
func (d *Doorbell) futexRing() {
	w := d.ring.futexWord()
	w.Add(1)
	futexWake(w)
}

// Prepare snapshots the doorbell state the consumer must capture before
// setting its parked flag (the futex word value it will wait on). The
// token is opaque; pass it to Sleep.
func (d *Doorbell) Prepare() uint32 {
	if d.kind == DoorbellFutex {
		return d.ring.futexWord().Load()
	}
	return 0
}

// Sleep blocks until the doorbell rings, the stop channel closes, Close
// is called, or the bounded wait elapses — whichever comes first.
// Spurious returns are fine: the caller's park loop re-checks the ring.
func (d *Doorbell) Sleep(token uint32, stopc <-chan struct{}) {
	if d.kind == DoorbellFutex {
		// A wake between Prepare and here bumped the word: FUTEX_WAIT
		// returns EAGAIN immediately, closing the lost-wakeup window.
		futexWait(d.ring.futexWord(), token, doorbellWaitMax)
		return
	}
	// No timeout here: the socket relay lives in-process, and teardown
	// closes stop/stopc, so the wake cannot be lost the way a dead peer's
	// futex wake can.
	select {
	case <-d.notify:
	case <-d.stop:
	case <-stopc:
	}
}

// Notify injects a local wake: the socket reader relays a received
// TypeWake frame here, and tests use it for spurious-wake injection. For
// the futex kind it is equivalent to Ring (the kernel object is the
// relay).
func (d *Doorbell) Notify() {
	if d.kind == DoorbellFutex {
		d.futexRing()
		return
	}
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// Close releases any sleeper and marks the doorbell dead.
func (d *Doorbell) Close() {
	select {
	case <-d.stop:
		return
	default:
	}
	close(d.stop)
	if d.kind == DoorbellFutex {
		d.futexRing()
	}
}
