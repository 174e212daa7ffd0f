package shm

import (
	"bytes"
	"testing"
)

// seedSlot builds a full published slot image for the corpus.
func seedSlot(typ uint8, id, pos uint64, payload []byte, slotSize int) []byte {
	b := AppendSlot(nil, typ, id, pos, payload)
	for len(b) < slotSize {
		b = append(b, 0)
	}
	return b
}

// FuzzParseSlot feeds arbitrary slot images to the consumer-side decoder.
// The invariants: no panics, payloads never escape the slot's bounds,
// torn sequence numbers and oversized lengths fail cleanly, stale epochs
// (a previous lap's frame) read as empty rather than as data, and every
// slot that decodes re-encodes to an equivalent image.
func FuzzParseSlot(f *testing.F) {
	const slotSize = 256
	// Valid published slots at a few ring positions, including later laps.
	f.Add(uint64(0), uint64(8), seedSlot(1, 42, 0, []byte("check"), slotSize))
	f.Add(uint64(7), uint64(8), seedSlot(3, 7, 7, nil, slotSize))
	f.Add(uint64(24), uint64(8), seedSlot(2, 99, 24, bytes.Repeat([]byte{0xAA}, 100), slotSize))

	// Adversarial seeds.
	torn := seedSlot(1, 1, 4, []byte("x"), slotSize)
	le.PutUint64(torn[slotSeqOff:], 3) // neither pos+1, zero, nor stale-lap
	f.Add(uint64(4), uint64(8), torn)

	stale := seedSlot(1, 5, 4, []byte("old"), slotSize) // published a lap ago
	f.Add(uint64(12), uint64(8), stale)

	oversized := seedSlot(1, 2, 0, []byte("y"), slotSize)
	le.PutUint32(oversized[slotLenOff:], slotSize) // > cap
	f.Add(uint64(0), uint64(8), oversized)

	lying := seedSlot(1, 3, 0, []byte("z"), slotSize)
	le.PutUint32(lying[slotLenOff:], uint32(slotSize-SlotHdrSize)) // cap exactly, data short
	f.Add(uint64(0), uint64(8), lying)

	f.Add(uint64(0), uint64(8), []byte{}) // truncated below the header
	f.Add(uint64(0), uint64(8), seedSlot(1, 4, 0, nil, slotSize)[:SlotHdrSize-3])
	f.Add(uint64(0), uint64(0), seedSlot(1, 4, 0, nil, slotSize)) // degenerate ring size
	f.Add(uint64(0), uint64(6), seedSlot(1, 4, 0, nil, slotSize)) // non-power-of-two ring
	f.Add(uint64(1<<63), uint64(8), seedSlot(1, 4, 1<<63, nil, slotSize))

	// MPSC seq states. Claimed-but-unpublished: a producer has claimed the
	// slot (tail moved past it) but not yet stored seq — the consumer sees
	// whatever was there before. Fresh ring: zero seq over junk bytes the
	// claimant already scribbled into the body.
	claimed := seedSlot(1, 77, 2, []byte("half-written body"), slotSize)
	le.PutUint64(claimed[slotSeqOff:], 0)
	f.Add(uint64(2), uint64(8), claimed)
	// Same state on a later lap: the slot still carries the previous lap's
	// fully-published frame (seq = pos+1-n) while its body is being
	// overwritten — must read as empty (stale), never as data.
	lapped := seedSlot(1, 78, 2, []byte("previous lap frame"), slotSize)
	f.Add(uint64(10), uint64(8), lapped)
	// Out-of-order publish: a later position's seq landed in this slot
	// index (possible only by corruption — positions map 1:1 to slots) —
	// seq = pos+1+n is ahead of the consumer and must be torn, not data.
	ahead := seedSlot(1, 79, 18, []byte("from the future"), slotSize)
	f.Add(uint64(10), uint64(8), ahead)

	f.Fuzz(func(t *testing.T, pos, n uint64, slot []byte) {
		fr, ok, err := ParseSlot(slot, pos, n)
		if !ok {
			if err == nil && len(slot) >= SlotHdrSize && n != 0 && n&(n-1) == 0 {
				// Cleanly empty (unpublished or stale) — fine.
				return
			}
			return // any clean failure is acceptable
		}
		if err != nil {
			t.Fatalf("ok with err: %v", err)
		}
		if len(fr.Payload) > len(slot)-SlotHdrSize {
			t.Fatalf("payload of %d escapes a %d-byte slot", len(fr.Payload), len(slot))
		}
		// Round trip: a decodable slot re-encodes to the same header+payload
		// prefix (trailing slot padding is not part of the frame).
		rt := AppendSlot(nil, fr.Type, fr.ID, pos, fr.Payload)
		// AppendSlot zeroes the reserved bytes; mask them out of the
		// comparison since ParseSlot ignores them.
		mask := func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[slotTypeOff+1], c[slotTypeOff+2], c[slotTypeOff+3] = 0, 0, 0
			return c
		}
		if !bytes.Equal(rt, mask(slot[:len(rt)])) {
			t.Fatalf("slot round trip mismatch:\n got %x\nwant %x", rt, slot[:len(rt)])
		}
	})
}

// seedHeader builds a region-header image for layout l (via the real
// writer, so seeds always match the current encoding).
func seedHeader(l Layout) []byte {
	b := NewBuffer(l)
	if _, err := NewRegion(b, l, true); err != nil {
		panic(err)
	}
	return append([]byte(nil), b[:regionHdrSize]...)
}

// FuzzParseLayout feeds arbitrary region headers to the opener-side
// validator. Invariants: no panics; whatever parses cleanly is version 3,
// validates, and re-encodes through NewRegion to the identical layout.
func FuzzParseLayout(f *testing.F) {
	base := Layout{SlotSize: 512, SubmitSlots: 8, CompleteSlots: 8}
	f.Add(seedHeader(base)) // socket doorbell
	futex := base
	futex.Doorbell = DoorbellFutex
	f.Add(seedHeader(futex))

	// Retired encodings, which must fail closed: version-1 and version-2
	// headers, doorbell kind 2, the old huge-pages flag bit.
	v1 := seedHeader(base)
	le.PutUint16(v1[hdrVersionOff:], 1)
	f.Add(v1)
	v2 := seedHeader(futex)
	le.PutUint16(v2[hdrVersionOff:], 2)
	f.Add(v2)
	kind2 := seedHeader(base)
	le.PutUint32(kind2[hdrFlagsOff:], 2)
	f.Add(kind2)
	hugeBit := seedHeader(futex)
	le.PutUint32(hugeBit[hdrFlagsOff:], uint32(DoorbellFutex)|1<<2)
	f.Add(hugeBit)

	// Adversarial seeds: bad magic, future version, unknown flag bits,
	// reserved doorbell kind, truncation.
	badMagic := seedHeader(base)
	le.PutUint32(badMagic[hdrMagicOff:], 0xDEADBEEF)
	f.Add(badMagic)
	futureVer := seedHeader(base)
	le.PutUint16(futureVer[hdrVersionOff:], Version+1)
	f.Add(futureVer)
	unknownFlags := seedHeader(futex)
	le.PutUint32(unknownFlags[hdrFlagsOff:], uint32(DoorbellFutex)|1<<30)
	f.Add(unknownFlags)
	badKind := seedHeader(futex)
	le.PutUint32(badKind[hdrFlagsOff:], hdrFlagDoorbellMask) // kind 3: reserved
	f.Add(badKind)
	f.Add(seedHeader(base)[:regionHdrSize-5])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, hdr []byte) {
		l, err := ParseLayout(hdr)
		if err != nil {
			return // any clean rejection is acceptable
		}
		if got := le.Uint16(hdr[hdrVersionOff:]); got != Version {
			t.Fatalf("version %d header parsed", got)
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("parsed layout fails validation: %+v: %v", l, verr)
		}
		if l.FileSize() > 1<<22 {
			return // valid but huge geometry: skip the alloc-heavy round trip
		}
		// Round trip: re-encoding through NewRegion and re-parsing must
		// yield the identical layout.
		l2, err := ParseLayout(seedHeader(l))
		if err != nil {
			t.Fatalf("re-encoded header rejected: %v", err)
		}
		if l2 != l {
			t.Fatalf("layout round trip %+v -> %+v", l, l2)
		}
	})
}
