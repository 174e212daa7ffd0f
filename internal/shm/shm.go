// Package shm implements dracod's shared-memory transport: io_uring-style
// submission/completion rings over an mmap'd file, the tier below the TCP
// wire protocol for co-located clients. Where the wire path pays two kernel
// crossings per pipelined burst (a write and a read on each side), the shm
// path moves frames through a file-backed mapping both processes share:
// steady-state submission and reaping never enter the kernel.
//
// One Region holds two single-producer/single-consumer rings:
//
//   - the submission ring: client produces request frames, server consumes;
//   - the completion ring: server produces response frames, client consumes.
//
// Each ring is a power-of-two array of fixed-size slots plus a header of
// cache-line-padded cursors. A slot carries one frame — the same payload
// encodings as internal/wire (check/batch/error bodies), so the existing
// zero-allocation codecs encode straight into slot memory:
//
//	offset  size  field
//	0       8     seq   (atomic; published when seq == position+1)
//	8       8     id    (request id, echoed in the response frame)
//	16      4     len   (payload length; bounded by the slot's capacity)
//	20      1     type  (frame type byte; opaque to this package)
//	21      3     reserved
//	24      ...   payload
//
// Publication is a per-slot sequence number, LMAX-disruptor style: a
// producer claims a position by CAS-advancing the shared tail cursor,
// fills the slot body, then store-releases seq = position+1. Because the
// commit point is per-slot, producers may publish out of order — the ring
// is MPSC: any number of producer goroutines (or processes sharing the
// mapping) claim concurrently, while the consumer side stays single. The
// consumer load-acquires seq; the value tells it apart from an empty or
// claimed-but-unpublished slot (zero or a value from an earlier lap) and
// torn or corrupted state (anything else — a protocol violation that
// kills the session, since a shared-memory peer that scribbles sequence
// numbers cannot be resynchronized). The consumer never writes to slots
// at all; it publishes progress by store-releasing the ring-header head
// cursor, which is what producers check for space.
//
// Each ring header spans three cache lines, one per writer pattern: the
// consumer's head cursor, the producers' tail cursor, and the park word
// (the consumer's parked flag beside the futex doorbell word). The
// consumer dirties head on every Release, producers dirty tail on every
// Claim, and the park word changes only when the consumer parks or is
// rung. A producer therefore reads a line nobody is writing when it asks
// ConsumerParked after each Publish, and reads head only when its cached
// copy says the ring is full.
//
// Idle peers cost nothing: a consumer busy-polls under an adaptive budget
// (SpinController), then sets the parked flag and blocks on a doorbell
// the producer rings only when the flag is up. The doorbell is picked by
// platform at handshake (see Caps and DoorbellKind): the futex word on
// the park line on Linux — an unparked peer costs the producer nothing,
// a parked one exactly one FUTEX_WAKE —, elsewhere a byte on the
// session's unix socket (see internal/server and internal/server/client
// for the two ends).
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Layout geometry and slot-header constants.
const (
	// Magic marks byte 0 of a region file.
	Magic uint32 = 0xD7AC0517
	// Version is the one region-layout version this package writes and
	// accepts: geometry plus a flags word naming the doorbell kind, and a
	// three-line ring header.
	Version uint16 = 3

	// regionHdrSize is the file-global header: magic, version, geometry.
	regionHdrSize = 64
	// ringHdrSize is each ring's header: one cache line for the
	// consumer's head, one for the producers' tail, one for the park word.
	ringHdrSize = 192

	// SlotHdrSize is the per-slot frame header (seq, id, len, type).
	SlotHdrSize = 24

	// MinSlotSize / MaxSlotSize bound a slot; both powers of two.
	MinSlotSize = 256
	MaxSlotSize = 1 << 20
	// MaxSlots bounds a ring's slot count.
	MaxSlots = 1 << 16

	// DefaultSlotSize fits a batch frame of ~78 wire-encoded calls
	// (52 bytes each) behind the 24-byte slot header.
	DefaultSlotSize = 4096
	// DefaultSlots is the per-ring slot count: 256 slots × 4KiB ≈ 1MiB per
	// direction, enough in-flight frames to keep both sides streaming.
	DefaultSlots = 256
)

// Slot field offsets within a slot.
const (
	slotSeqOff  = 0
	slotIDOff   = 8
	slotLenOff  = 16
	slotTypeOff = 20
)

// Region-header field offsets.
const (
	hdrMagicOff     = 0
	hdrVersionOff   = 4
	hdrSlotSizeOff  = 8
	hdrSubSlotsOff  = 12
	hdrCompSlotsOff = 16
	hdrFlagsOff     = 20 // flags word: the doorbell kind
)

// Header flags-word encoding: the low bits carry the negotiated doorbell
// kind; every other bit is reserved and must be zero.
const hdrFlagDoorbellMask uint32 = 0x3

// Ring-header field offsets (relative to the ring header).
const (
	ringHeadOff   = 0   // consumer cursor (atomic uint64), own cache line
	ringTailOff   = 64  // producer cursor (atomic uint64), own cache line
	ringParkedOff = 128 // consumer parked flag (atomic uint32), park line
	ringFutexOff  = 132 // futex doorbell word (atomic uint32), park line
)

// Errors.
var (
	ErrBadMagic     = errors.New("shm: bad region magic")
	ErrBadVersion   = errors.New("shm: unsupported region version")
	ErrBadGeometry  = errors.New("shm: invalid region geometry")
	ErrTornSeq      = errors.New("shm: torn slot sequence number")
	ErrOversized    = errors.New("shm: slot payload length exceeds capacity")
	ErrFrameTooBig  = errors.New("shm: frame payload exceeds slot capacity")
	ErrRingClosed   = errors.New("shm: ring closed")
	ErrUnsupported  = errors.New("shm: shared-memory transport unsupported on this platform")
	errShortMapping = errors.New("shm: mapping shorter than its declared geometry")
)

var le = binary.LittleEndian

// Layout describes a region's geometry plus the doorbell kind the creator
// negotiated.
type Layout struct {
	// SlotSize is the per-slot byte size (power of two, header included).
	SlotSize int
	// SubmitSlots / CompleteSlots are the per-ring slot counts (powers of
	// two).
	SubmitSlots   int
	CompleteSlots int

	// Doorbell is the wakeup mechanism both sides agreed on at handshake.
	// The creator writes it into the header flags word; openers read it
	// back rather than re-negotiate.
	Doorbell DoorbellKind
}

// DefaultLayout returns the default region geometry.
func DefaultLayout() Layout {
	return Layout{SlotSize: DefaultSlotSize, SubmitSlots: DefaultSlots, CompleteSlots: DefaultSlots}
}

// Validate checks the geometry bounds.
func (l Layout) Validate() error {
	if l.SlotSize < MinSlotSize || l.SlotSize > MaxSlotSize || l.SlotSize&(l.SlotSize-1) != 0 {
		return fmt.Errorf("%w: slot size %d", ErrBadGeometry, l.SlotSize)
	}
	for _, n := range []int{l.SubmitSlots, l.CompleteSlots} {
		if n < 1 || n > MaxSlots || n&(n-1) != 0 {
			return fmt.Errorf("%w: slot count %d", ErrBadGeometry, n)
		}
	}
	if l.Doorbell >= numDoorbellKinds {
		return fmt.Errorf("%w: doorbell kind %d", ErrBadGeometry, l.Doorbell)
	}
	return nil
}

// PayloadCap is the per-frame payload capacity under this layout.
func (l Layout) PayloadCap() int { return l.SlotSize - SlotHdrSize }

// FileSize is the region file size this geometry needs.
func (l Layout) FileSize() int {
	return regionHdrSize + 2*ringHdrSize + (l.SubmitSlots+l.CompleteSlots)*l.SlotSize
}

// Region is a mapped (or in-memory) ring pair. Submit carries client →
// server request frames; Complete carries server → client responses.
type Region struct {
	Submit   *Ring
	Complete *Ring

	layout Layout
	b      []byte
	unmap  func() error
}

// Layout returns the region's geometry.
func (r *Region) Layout() Layout { return r.layout }

// Invalidate closes both rings without releasing the mapping: blocked
// producers and consumers bail out, but the memory stays valid. Callers
// that run ring loops on other goroutines invalidate first, wait for the
// loops to exit, and only then Close — unmapping under a live consumer is
// a fault, not an error return.
func (r *Region) Invalidate() {
	r.Submit.close()
	r.Complete.close()
}

// Close invalidates the rings and unmaps the region when file-backed. No
// goroutine may touch the rings concurrently with or after Close; see
// Invalidate for the two-phase teardown.
func (r *Region) Close() error {
	r.Invalidate()
	if r.unmap != nil {
		u := r.unmap
		r.unmap = nil
		return u()
	}
	return nil
}

// NewRegion lays a region over b, which must be at least l.FileSize()
// bytes. When init is true the header and cursors are (re)initialized —
// the creator's side; openers validate the existing header instead.
func NewRegion(b []byte, l Layout, init bool) (*Region, error) {
	if init {
		if err := l.Validate(); err != nil {
			return nil, err
		}
		if len(b) < l.FileSize() {
			return nil, errShortMapping
		}
		for i := range b[:l.FileSize()] {
			b[i] = 0
		}
		le.PutUint32(b[hdrMagicOff:], Magic)
		le.PutUint16(b[hdrVersionOff:], Version)
		le.PutUint16(b[hdrVersionOff+2:], 0)
		le.PutUint32(b[hdrSlotSizeOff:], uint32(l.SlotSize))
		le.PutUint32(b[hdrSubSlotsOff:], uint32(l.SubmitSlots))
		le.PutUint32(b[hdrCompSlotsOff:], uint32(l.CompleteSlots))
		le.PutUint32(b[hdrFlagsOff:], uint32(l.Doorbell))
	} else {
		got, err := ParseLayout(b)
		if err != nil {
			return nil, err
		}
		if len(b) < got.FileSize() {
			return nil, errShortMapping
		}
		l = got
	}
	r := &Region{layout: l, b: b}
	subOff := regionHdrSize
	compOff := subOff + ringHdrSize + l.SubmitSlots*l.SlotSize
	r.Submit = newRing(b[subOff:compOff], l.SlotSize, l.SubmitSlots)
	r.Complete = newRing(b[compOff:compOff+ringHdrSize+l.CompleteSlots*l.SlotSize], l.SlotSize, l.CompleteSlots)
	return r, nil
}

// NewBuffer allocates an in-memory backing buffer for a region with
// guaranteed 8-byte alignment (the cursor words are accessed atomically).
// Mapped files are page-aligned; this is the equivalent for heap-backed
// regions, used by tests and as the portable in-process fallback.
func NewBuffer(l Layout) []byte {
	words := make([]uint64, (l.FileSize()+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), l.FileSize())
}

// ParseLayout reads and validates a region header: magic, Version, a
// flags word with no reserved bit set, and geometry and doorbell kind
// that pass Validate.
func ParseLayout(b []byte) (Layout, error) {
	if len(b) < regionHdrSize {
		return Layout{}, errShortMapping
	}
	if le.Uint32(b[hdrMagicOff:]) != Magic {
		return Layout{}, ErrBadMagic
	}
	if le.Uint16(b[hdrVersionOff:]) != Version {
		return Layout{}, ErrBadVersion
	}
	f := le.Uint32(b[hdrFlagsOff:])
	if f&^hdrFlagDoorbellMask != 0 {
		return Layout{}, fmt.Errorf("%w: unknown flags %#x", ErrBadVersion, f&^hdrFlagDoorbellMask)
	}
	l := Layout{
		SlotSize:      int(le.Uint32(b[hdrSlotSizeOff:])),
		SubmitSlots:   int(le.Uint32(b[hdrSubSlotsOff:])),
		CompleteSlots: int(le.Uint32(b[hdrCompSlotsOff:])),
		Doorbell:      DoorbellKind(f),
	}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

// Frame is one consumed frame. Payload aliases slot memory and is valid
// only until the consumer calls Release.
type Frame struct {
	Type    uint8
	ID      uint64
	Payload []byte
}

// Ring is one direction's MPSC slot ring. Any number of producers claim
// slots concurrently (CAS on the shared tail); the consumer side runs in
// exactly one goroutine (or behind one lock). The two sides may be in
// different processes sharing the mapping.
type Ring struct {
	head   *atomic.Uint64 // consumer cursor (shared)
	tail   *atomic.Uint64 // producer cursor (shared, CAS-claimed)
	parked *atomic.Uint32 // consumer parked flag (shared)
	futexW *atomic.Uint32 // futex doorbell word (shared)
	slots  []byte
	size   int    // slot size in bytes
	mask   uint64 // slot-count mask
	n      uint64 // slot count

	// headCache is the producers' process-local view of head, refreshed
	// only when the ring looks full — it keeps the fast path off the
	// consumer's cache line.
	headCache atomic.Uint64

	// Consumer-local state.
	cHead    uint64 // consumer's own cursor mirror
	consumed bool   // a frame is held between Consume and Release

	closed atomic.Bool
}

func newRing(b []byte, slotSize, slots int) *Ring {
	r := &Ring{
		head:   (*atomic.Uint64)(unsafe.Pointer(&b[ringHeadOff])),
		parked: (*atomic.Uint32)(unsafe.Pointer(&b[ringParkedOff])),
		futexW: (*atomic.Uint32)(unsafe.Pointer(&b[ringFutexOff])),
		tail:   (*atomic.Uint64)(unsafe.Pointer(&b[ringTailOff])),
		slots:  b[ringHdrSize:],
		size:   slotSize,
		mask:   uint64(slots - 1),
		n:      uint64(slots),
	}
	// Re-attach local mirrors to shared cursors (openers join a ring whose
	// peer may already have produced frames).
	r.headCache.Store(r.head.Load())
	r.cHead = r.head.Load()
	return r
}

func (r *Ring) slot(pos uint64) []byte {
	off := int(pos&r.mask) * r.size
	return r.slots[off : off+r.size]
}

// PayloadCap is the largest payload one frame can carry.
func (r *Ring) PayloadCap() int { return r.size - SlotHdrSize }

// Slots returns the ring's slot count.
func (r *Ring) Slots() int { return int(r.n) }

// close marks the ring closed; blocked producers and consumers bail out.
func (r *Ring) close() { r.closed.Store(true) }

// Closed reports whether close was called on this side's Region.
func (r *Ring) Closed() bool { return r.closed.Load() }

// --- producer side ----------------------------------------------------------

// Claim reserves the next free slot and returns its position together
// with the slot's payload buffer (len 0, cap PayloadCap), spinning — via
// the shared Backoff ladder — while the ring is full. Claiming advances
// the shared tail (CAS, so any number of producers may claim
// concurrently) but publishes nothing: the slot becomes visible only on
// Publish, and every successful Claim MUST be followed by exactly one
// Publish for the same position — an unpublished claim is a hole that
// stalls the consumer forever. Returns a nil buffer when the ring is
// closed.
//
// The full path is the transport's backpressure: a producer outrunning
// the consumer ends up spinning here, exactly like a wire client blocked
// on TCP flow control.
func (r *Ring) Claim() (uint64, []byte) {
	var bo Backoff
	for {
		if pos, buf, ok := r.TryClaim(); ok {
			return pos, buf
		}
		if r.closed.Load() {
			return 0, nil
		}
		bo.Wait()
	}
}

// TryClaim is Claim without the wait: it reports false when the ring is
// full, and the producer decides what to do about it. A producer that is
// also the consumer of the opposite ring must not simply wait here — its
// peer may be unable to drain this ring until the opposite one is reaped.
func (r *Ring) TryClaim() (uint64, []byte, bool) {
	for {
		pos := r.tail.Load()
		if pos-r.headCache.Load() >= r.n {
			h := r.head.Load()
			r.headCache.Store(h)
			if pos-h >= r.n {
				return 0, nil, false
			}
		}
		if r.tail.CompareAndSwap(pos, pos+1) {
			s := r.slot(pos)
			return pos, s[SlotHdrSize:SlotHdrSize:r.size], true
		}
		// Lost the CAS to another producer: that is progress, go again.
	}
}

// Publish seals the slot claimed at pos with a frame. payload is normally
// the buffer Claim returned, appended in place — then no copy happens;
// any other buffer that fits is copied in. Publication is per-slot, so
// producers may publish their claims in any order; the consumer sees each
// frame as soon as every position before it has published too.
func (r *Ring) Publish(pos uint64, typ uint8, id uint64, payload []byte) error {
	if len(payload) > r.PayloadCap() {
		return ErrFrameTooBig
	}
	if r.closed.Load() {
		return ErrRingClosed
	}
	s := r.slot(pos)
	if len(payload) > 0 && &s[SlotHdrSize] != &payload[0] {
		copy(s[SlotHdrSize:], payload)
	}
	le.PutUint64(s[slotIDOff:], id)
	le.PutUint32(s[slotLenOff:], uint32(len(payload)))
	s[slotTypeOff] = typ
	s[slotTypeOff+1], s[slotTypeOff+2], s[slotTypeOff+3] = 0, 0, 0
	// The release-store of seq is the publication point: every slot write
	// above happens-before a consumer that load-acquires seq == pos+1.
	(*atomic.Uint64)(unsafe.Pointer(&s[slotSeqOff])).Store(pos + 1)
	return nil
}

// ConsumerParked reports whether the consumer has parked and needs a
// doorbell. The producer checks this after Publish; a false reading
// concurrent with the consumer parking is recovered by the consumer's
// re-check-after-park.
func (r *Ring) ConsumerParked() bool { return r.parked.Load() != 0 }

// --- consumer side ----------------------------------------------------------

// Consume decodes the next published frame into f. It returns (false,nil)
// when the ring is empty, and a terminal error on torn or corrupt slot
// state. After a true return the frame's payload aliases slot memory:
// the caller must finish with it and call Release before the next Consume.
func (r *Ring) Consume(f *Frame) (bool, error) {
	if r.consumed {
		return false, errors.New("shm: Consume without Release")
	}
	pos := r.cHead
	s := r.slot(pos)
	seq := (*atomic.Uint64)(unsafe.Pointer(&s[slotSeqOff])).Load()
	ready, err := seqState(seq, pos, r.n)
	if err != nil || !ready {
		return false, err
	}
	n := le.Uint32(s[slotLenOff:])
	if int(n) > r.PayloadCap() {
		return false, ErrOversized
	}
	f.Type = s[slotTypeOff]
	f.ID = le.Uint64(s[slotIDOff:])
	f.Payload = s[SlotHdrSize : SlotHdrSize+int(n)]
	r.consumed = true
	return true, nil
}

// Release frees the slot Consume returned, publishing consumer progress
// so the producer can reuse it.
func (r *Ring) Release() {
	if !r.consumed {
		return
	}
	r.consumed = false
	r.cHead++
	r.head.Store(r.cHead)
}

// Empty reports whether no published frame is waiting (a best-effort
// peek, used for the park re-check).
func (r *Ring) Empty() bool {
	s := r.slot(r.cHead)
	seq := (*atomic.Uint64)(unsafe.Pointer(&s[slotSeqOff])).Load()
	return seq != r.cHead+1
}

// SetParked publishes the consumer's parked flag. The protocol is: set
// parked, re-check Empty (a frame published in between means skip the
// park), block on the doorbell, clear parked.
func (r *Ring) SetParked(v bool) {
	if v {
		r.parked.Store(1)
	} else {
		r.parked.Store(0)
	}
}

// futexWord is the ring's shared futex doorbell word. It lives in the
// mapped ring header, so a FUTEX_WAKE on one side's mapping wakes a
// FUTEX_WAIT on the other side's: the kernel keys shared futexes by the
// backing page, not the virtual address.
func (r *Ring) futexWord() *atomic.Uint32 { return r.futexW }

// seqState classifies a slot's sequence word for position pos in a ring
// of n slots: published now (pos+1), not yet published (zero or a value
// from an earlier lap), or torn/corrupt (anything else). n is a power of
// two (Layout.Validate, ParseSlot), so a whole number of laps is a mask
// test, not a divide: the consumer runs this on every empty poll.
func seqState(seq, pos, n uint64) (ready bool, err error) {
	switch {
	case seq == pos+1:
		return true, nil
	case seq == 0:
		return false, nil
	case seq <= pos && (pos+1-seq)&(n-1) == 0:
		// A stale epoch: the frame published at this slot some whole
		// number of laps ago, not yet overwritten this lap.
		return false, nil
	default:
		return false, fmt.Errorf("%w: slot %d holds seq %d", ErrTornSeq, pos&(n-1), seq)
	}
}

// ParseSlot decodes slot bytes as the consumer would for ring position pos
// in a ring of n slots, without touching ring state: the fuzz surface for
// the slot layout. It never panics on arbitrary input and never yields a
// payload beyond the slot's bounds.
func ParseSlot(slot []byte, pos, n uint64) (Frame, bool, error) {
	var f Frame
	if len(slot) < SlotHdrSize {
		return f, false, errShortMapping
	}
	if n == 0 || n&(n-1) != 0 {
		return f, false, ErrBadGeometry
	}
	seq := le.Uint64(slot[slotSeqOff:])
	ready, err := seqState(seq, pos, n)
	if err != nil || !ready {
		return f, false, err
	}
	ln := le.Uint32(slot[slotLenOff:])
	if int(ln) > len(slot)-SlotHdrSize {
		return f, false, ErrOversized
	}
	f.Type = slot[slotTypeOff]
	f.ID = le.Uint64(slot[slotIDOff:])
	f.Payload = slot[SlotHdrSize : SlotHdrSize+int(ln)]
	return f, true, nil
}

// AppendSlot encodes a full slot image (header + payload) for position pos
// — the encoding mirror of ParseSlot, used by tests to round-trip the
// layout without a live ring.
func AppendSlot(dst []byte, typ uint8, id uint64, pos uint64, payload []byte) []byte {
	var hdr [SlotHdrSize]byte
	le.PutUint64(hdr[slotSeqOff:], pos+1)
	le.PutUint64(hdr[slotIDOff:], id)
	le.PutUint32(hdr[slotLenOff:], uint32(len(payload)))
	hdr[slotTypeOff] = typ
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}
