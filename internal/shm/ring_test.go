package shm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func newTestRegion(t testing.TB, l Layout) *Region {
	t.Helper()
	r, err := NewRegion(NewBuffer(l), l, true)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustPublish claims the next slot and publishes payload into it.
func mustPublish(t testing.TB, r *Ring, typ uint8, id uint64, payload []byte) {
	t.Helper()
	pos, buf := r.Claim()
	if buf == nil {
		t.Fatal("Claim returned nil on open ring")
	}
	buf = append(buf, payload...)
	if err := r.Publish(pos, typ, id, buf); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutValidate(t *testing.T) {
	if err := DefaultLayout().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Layout{
		{SlotSize: 100, SubmitSlots: 8, CompleteSlots: 8},     // not a power of two
		{SlotSize: 128, SubmitSlots: 8, CompleteSlots: 8},     // below MinSlotSize
		{SlotSize: 2 << 20, SubmitSlots: 8, CompleteSlots: 8}, // above MaxSlotSize
		{SlotSize: 4096, SubmitSlots: 0, CompleteSlots: 8},
		{SlotSize: 4096, SubmitSlots: 8, CompleteSlots: 3},
		{SlotSize: 4096, SubmitSlots: MaxSlots * 2, CompleteSlots: 8},
		{SlotSize: 4096, SubmitSlots: 8, CompleteSlots: 8, Doorbell: numDoorbellKinds},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Fatalf("bad layout %d validated: %+v", i, l)
		}
	}
}

// TestLayoutV2RoundTrip proves the header flags word round-trips both
// doorbell kinds through NewRegion/ParseLayout, always under Version.
func TestLayoutV2RoundTrip(t *testing.T) {
	base := Layout{SlotSize: 512, SubmitSlots: 8, CompleteSlots: 8}
	for _, k := range []DoorbellKind{DoorbellSocket, DoorbellFutex} {
		l := base
		l.Doorbell = k
		b := NewBuffer(l)
		if _, err := NewRegion(b, l, true); err != nil {
			t.Fatal(err)
		}
		if got := le.Uint16(b[hdrVersionOff:]); got != Version {
			t.Fatalf("%v: header version %d, want %d", k, got, Version)
		}
		got, err := ParseLayout(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != l {
			t.Fatalf("round trip %+v -> %+v", l, got)
		}
	}
	// Unknown flag bits must be rejected, not silently dropped.
	l := base
	l.Doorbell = DoorbellFutex
	b := NewBuffer(l)
	if _, err := NewRegion(b, l, true); err != nil {
		t.Fatal(err)
	}
	le.PutUint32(b[hdrFlagsOff:], le.Uint32(b[hdrFlagsOff:])|1<<31)
	if _, err := ParseLayout(b); err == nil {
		t.Fatal("unknown flag bits parsed cleanly")
	}
}

// TestLayoutV3CacheLines pins the version-3 ring header on both rings of
// a region: head, tail and the park word each on a 64-byte line of its
// own, the futex word on the park word's line, and slot 0 64-byte
// aligned. A header carrying the previous version fails closed.
func TestLayoutV3CacheLines(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 4, CompleteSlots: 8}
	b := NewBuffer(l)
	reg, err := NewRegion(b, l, true)
	if err != nil {
		t.Fatal(err)
	}
	base := uintptr(unsafe.Pointer(&b[0]))
	line := func(p unsafe.Pointer) uintptr { return (uintptr(p) - base) / 64 }
	for name, r := range map[string]*Ring{"submit": reg.Submit, "complete": reg.Complete} {
		head, tail, park := line(unsafe.Pointer(r.head)), line(unsafe.Pointer(r.tail)), line(unsafe.Pointer(r.parked))
		if head == tail || head == park || tail == park {
			t.Fatalf("%s: head, tail and park word share a line: %d/%d/%d", name, head, tail, park)
		}
		if f := line(unsafe.Pointer(r.futexW)); f != park {
			t.Fatalf("%s: futex word on line %d, park word on line %d", name, f, park)
		}
		if off := uintptr(unsafe.Pointer(&r.slots[0])) - base; off%64 != 0 {
			t.Fatalf("%s: slot 0 at offset %d, not 64-byte aligned", name, off)
		}
	}
	le.PutUint16(b[hdrVersionOff:], 2)
	if _, err := ParseLayout(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version-2 header: err %v, want ErrBadVersion", err)
	}
}

// TestRingRoundTrip pushes frames through one ring across several laps and
// checks payload, id, and type fidelity plus empty/full transitions.
func TestRingRoundTrip(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 4, CompleteSlots: 4}
	reg := newTestRegion(t, l)
	r := reg.Submit

	var f Frame
	if ok, err := r.Consume(&f); ok || err != nil {
		t.Fatalf("fresh ring not empty: ok=%v err=%v", ok, err)
	}
	for i := 0; i < 64; i++ { // 16 laps of a 4-slot ring
		pos, buf := r.Claim()
		if buf == nil {
			t.Fatal("Claim returned nil on open ring")
		}
		payload := fmt.Appendf(buf, "frame-%d", i)
		if err := r.Publish(pos, uint8(i%7)+1, uint64(i), payload); err != nil {
			t.Fatal(err)
		}
		ok, err := r.Consume(&f)
		if err != nil || !ok {
			t.Fatalf("frame %d: ok=%v err=%v", i, ok, err)
		}
		if f.ID != uint64(i) || f.Type != uint8(i%7)+1 || string(f.Payload) != fmt.Sprintf("frame-%d", i) {
			t.Fatalf("frame %d decoded %d/%d/%q", i, f.ID, f.Type, f.Payload)
		}
		r.Release()
	}
}

// TestRingBackpressure fills the ring, checks the producer observes it as
// full, and that consuming frees slots for further production.
func TestRingBackpressure(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 2, CompleteSlots: 2}
	reg := newTestRegion(t, l)
	r := reg.Submit

	for i := 0; i < 2; i++ {
		mustPublish(t, r, 1, uint64(i), nil)
	}
	// The ring is full: a Claim would spin. Drain one frame from a second
	// goroutine after a delay and require Claim to complete.
	done := make(chan struct{})
	go func() {
		defer close(done)
		pos, buf := r.Claim()
		if buf == nil {
			t.Error("Claim returned nil")
			return
		}
		if err := r.Publish(pos, 1, 2, buf); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Claim returned while the ring was full")
	default:
	}
	var f Frame
	if ok, err := r.Consume(&f); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	r.Release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Claim did not observe the freed slot")
	}
}

// TestRingOutOfOrderPublish proves the MPSC contract: a later claim may
// publish first, the frame stays invisible until the earlier hole fills,
// and then both frames arrive in claim order.
func TestRingOutOfOrderPublish(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 4, CompleteSlots: 4}
	reg := newTestRegion(t, l)
	r := reg.Submit

	posA, bufA := r.Claim()
	posB, bufB := r.Claim()
	if posB != posA+1 {
		t.Fatalf("claims not adjacent: %d then %d", posA, posB)
	}
	// B publishes first: the consumer must still see nothing (hole at A).
	if err := r.Publish(posB, 2, 200, append(bufB, 'b')); err != nil {
		t.Fatal(err)
	}
	if !r.Empty() {
		t.Fatal("ring visible past an unpublished hole")
	}
	var f Frame
	if ok, err := r.Consume(&f); ok || err != nil {
		t.Fatalf("consumed past a hole: ok=%v err=%v", ok, err)
	}
	if err := r.Publish(posA, 1, 100, append(bufA, 'a')); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		id  uint64
		typ uint8
		p   string
	}{{100, 1, "a"}, {200, 2, "b"}} {
		ok, err := r.Consume(&f)
		if err != nil || !ok {
			t.Fatalf("frame %d: ok=%v err=%v", i, ok, err)
		}
		if f.ID != want.id || f.Type != want.typ || string(f.Payload) != want.p {
			t.Fatalf("frame %d decoded %d/%d/%q", i, f.ID, f.Type, f.Payload)
		}
		r.Release()
	}
}

// TestRingTornSeq corrupts a slot's sequence word and requires the
// consumer to fail terminally instead of decoding garbage.
func TestRingTornSeq(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 4, CompleteSlots: 4}
	reg := newTestRegion(t, l)
	r := reg.Submit
	mustPublish(t, r, 1, 7, nil)
	// Scribble the seq word with a value that is neither published, empty,
	// nor a stale lap.
	copy(r.slot(0)[slotSeqOff:], []byte{0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE})
	var f Frame
	if _, err := r.Consume(&f); err == nil {
		t.Fatal("torn seq consumed cleanly")
	}
}

// TestSeqStateClassification pins the three classes of a slot's sequence
// word at lap boundaries for every ring size from one slot to MaxSlots:
// pos+1 is ready, zero and whole laps back are not yet published, and
// anything else (a partial lap back, any future value) is torn. ParseSlot
// must classify the same way.
func TestSeqStateClassification(t *testing.T) {
	const (
		ready = iota
		empty
		torn
	)
	for _, n := range []uint64{1, 2, 64, MaxSlots} {
		for _, pos := range []uint64{0, n - 1, n, n + 1, 2*n - 1, 3 * n, 1000*n + n - 1} {
			type tc struct {
				seq  uint64
				want int
			}
			cases := []tc{
				{pos + 1, ready},
				{0, empty},
				{pos + 2, torn},
				{pos + 1 + n, torn},
			}
			if pos+1 > n {
				cases = append(cases, tc{pos + 1 - n, empty})
			}
			if pos+1 > 2*n {
				cases = append(cases, tc{pos + 1 - 2*n, empty})
			}
			if pos > 0 {
				// One position back: a whole lap only in a one-slot ring.
				want := torn
				if n == 1 {
					want = empty
				}
				cases = append(cases, tc{pos, want})
			}
			if n > 2 && pos+1 > n/2 {
				cases = append(cases, tc{pos + 1 - n/2, torn})
			}
			for _, c := range cases {
				rdy, err := seqState(c.seq, pos, n)
				got := empty
				switch {
				case err != nil:
					got = torn
					if !errors.Is(err, ErrTornSeq) {
						t.Fatalf("n=%d pos=%d seq=%d: error %v, want ErrTornSeq", n, pos, c.seq, err)
					}
				case rdy:
					got = ready
				}
				if got != c.want {
					t.Fatalf("n=%d pos=%d seq=%d: class %d, want %d", n, pos, c.seq, got, c.want)
				}
				slot := make([]byte, SlotHdrSize)
				le.PutUint64(slot[slotSeqOff:], c.seq)
				_, prdy, perr := ParseSlot(slot, pos, n)
				if prdy != rdy || (perr != nil) != (err != nil) {
					t.Fatalf("n=%d pos=%d seq=%d: ParseSlot (%v, %v), seqState (%v, %v)", n, pos, c.seq, prdy, perr, rdy, err)
				}
			}
		}
	}
}

// TestRingOversizedLen corrupts a published slot's length field beyond the
// payload capacity; the consumer must refuse it.
func TestRingOversizedLen(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 4, CompleteSlots: 4}
	reg := newTestRegion(t, l)
	r := reg.Submit
	mustPublish(t, r, 1, 7, nil)
	le.PutUint32(r.slot(0)[slotLenOff:], uint32(l.SlotSize)) // > PayloadCap
	var f Frame
	if _, err := r.Consume(&f); err == nil {
		t.Fatal("oversized len consumed cleanly")
	}
}

// TestRingSPSCConcurrent streams frames through a ring with one producer
// and one consumer on separate goroutines, checking content and order.
func TestRingSPSCConcurrent(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 8, CompleteSlots: 8}
	reg := newTestRegion(t, l)
	r := reg.Submit
	const frames = 50_000

	var consumerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var f Frame
		for i := 0; i < frames; {
			ok, err := r.Consume(&f)
			if err != nil {
				consumerErr = err
				return
			}
			if !ok {
				// Yield on empty: on a single-core box an unyielding spin
				// starves the producer until async preemption kicks in.
				runtime.Gosched()
				continue
			}
			if f.ID != uint64(i) || len(f.Payload) != int(f.ID%64) {
				consumerErr = fmt.Errorf("frame %d: id=%d len=%d", i, f.ID, len(f.Payload))
				return
			}
			for _, b := range f.Payload {
				if b != byte(i) {
					consumerErr = fmt.Errorf("frame %d: payload byte %d", i, b)
					return
				}
			}
			r.Release()
			i++
		}
	}()
	for i := 0; i < frames; i++ {
		pos, buf := r.Claim()
		for j := 0; j < i%64; j++ {
			buf = append(buf, byte(i))
		}
		if err := r.Publish(pos, 3, uint64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if consumerErr != nil {
		t.Fatal(consumerErr)
	}
}

// TestRingMPSCConcurrent is the MPSC claim hammer: 16 producers CAS-claim
// slots on one ring against a single consumer. Each producer streams its
// own sequence; the consumer checks per-producer ordering, global frame
// count, and payload integrity. Run it under -race (make check does).
func TestRingMPSCConcurrent(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 16, CompleteSlots: 16}
	reg := newTestRegion(t, l)
	r := reg.Submit
	const (
		producers = 16
		perProd   = 2_000
	)

	var consumerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var f Frame
		var next [producers]uint32
		for i := 0; i < producers*perProd; {
			ok, err := r.Consume(&f)
			if err != nil {
				consumerErr = err
				return
			}
			if !ok {
				runtime.Gosched()
				continue
			}
			prod := uint32(f.ID >> 32)
			seq := uint32(f.ID)
			if prod >= producers || seq != next[prod] {
				consumerErr = fmt.Errorf("producer %d: seq %d, want %d", prod, seq, next[prod])
				return
			}
			next[prod]++
			if len(f.Payload) != int(seq%32) {
				consumerErr = fmt.Errorf("producer %d seq %d: payload len %d", prod, seq, len(f.Payload))
				return
			}
			for _, b := range f.Payload {
				if b != byte(prod) {
					consumerErr = fmt.Errorf("producer %d seq %d: payload byte %d", prod, seq, b)
					return
				}
			}
			r.Release()
			i++
		}
	}()

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				pos, buf := r.Claim()
				if buf == nil {
					t.Error("Claim returned nil mid-stream")
					return
				}
				for j := 0; j < i%32; j++ {
					buf = append(buf, byte(p))
				}
				if err := r.Publish(pos, 3, uint64(p)<<32|uint64(uint32(i)), buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	pwg.Wait()
	wg.Wait()
	if consumerErr != nil {
		t.Fatal(consumerErr)
	}
}

// TestParkProtocol exercises the parked-flag handshake: a consumer that
// parks is observable by the producer, and the re-check closes the race
// where a frame publishes between the empty check and the park.
func TestParkProtocol(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 4, CompleteSlots: 4}
	reg := newTestRegion(t, l)
	r := reg.Submit

	if r.ConsumerParked() {
		t.Fatal("fresh ring parked")
	}
	r.SetParked(true)
	if !r.ConsumerParked() {
		t.Fatal("park flag not visible")
	}
	if !r.Empty() {
		t.Fatal("empty ring reports frames")
	}
	mustPublish(t, r, 1, 1, nil)
	if r.Empty() {
		t.Fatal("published frame invisible to Empty")
	}
	r.SetParked(false)
	if r.ConsumerParked() {
		t.Fatal("unpark flag not visible")
	}
}

// TestRegionFileRoundTrip maps one file from two Regions (creator and
// opener, as the two processes would) and moves frames both ways.
func TestRegionFileRoundTrip(t *testing.T) {
	if !Supported() {
		t.Skip("no mmap support on this platform")
	}
	path := filepath.Join(t.TempDir(), "ring.shm")
	l := Layout{SlotSize: 512, SubmitSlots: 8, CompleteSlots: 8}
	srv, err := CreateFile(path, l)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Layout() != l {
		t.Fatalf("opener layout %+v, want %+v", cli.Layout(), l)
	}

	// Client produces a request; server consumes it and produces a
	// response; client reaps it — through the two distinct mappings.
	req := []byte("check openat")
	mustPublish(t, cli.Submit, 1, 42, req)
	var f Frame
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok, err := srv.Submit.Consume(&f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never saw the submission")
		}
	}
	if f.ID != 42 || !bytes.Equal(f.Payload, req) {
		t.Fatalf("server decoded %d/%q", f.ID, f.Payload)
	}
	srv.Submit.Release()
	mustPublish(t, srv.Complete, 2, 42, []byte("allow"))
	for {
		ok, err := cli.Complete.Consume(&f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never saw the completion")
		}
	}
	if f.ID != 42 || string(f.Payload) != "allow" {
		t.Fatalf("client decoded %d/%q", f.ID, f.Payload)
	}
	cli.Complete.Release()
}

// TestOpenFileRejectsGarbage ensures header validation runs before any
// geometry is trusted, and that the retired encodings — version-1 and
// version-2 headers, doorbell kind 2, the old huge-pages flag bit — fail
// closed.
func TestOpenFileRejectsGarbage(t *testing.T) {
	if !Supported() {
		t.Skip("no mmap support on this platform")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "garbage.shm")
	if err := os.WriteFile(bad, bytes.Repeat([]byte{0xAB}, 4096), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Fatal("garbage region opened")
	}
	// A truncated file with a valid header must be rejected too.
	l := Layout{SlotSize: 512, SubmitSlots: 8, CompleteSlots: 8}
	buf := NewBuffer(l)
	if _, err := NewRegion(buf, l, true); err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.shm")
	if err := os.WriteFile(short, buf[:1024], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(short); err == nil {
		t.Fatal("short region opened")
	}
	for name, patch := range map[string]func(b []byte){
		"v1":      func(b []byte) { le.PutUint16(b[hdrVersionOff:], 1) },
		"v2":      func(b []byte) { le.PutUint16(b[hdrVersionOff:], 2) },
		"kind2":   func(b []byte) { le.PutUint32(b[hdrFlagsOff:], 2) },
		"hugebit": func(b []byte) { le.PutUint32(b[hdrFlagsOff:], 1<<2) },
	} {
		img := append([]byte(nil), buf...)
		patch(img)
		path := filepath.Join(dir, name+".shm")
		if err := os.WriteFile(path, img, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(path); err == nil {
			t.Fatalf("%s region opened", name)
		}
	}
}

// TestZeroAllocsRing pins the enqueue/dequeue hot path at zero heap
// allocations per frame (skipped under -race: the detector perturbs alloc
// accounting).
func TestZeroAllocsRing(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc accounting is perturbed under -race")
	}
	l := Layout{SlotSize: 512, SubmitSlots: 8, CompleteSlots: 8}
	reg := newTestRegion(t, l)
	r := reg.Submit
	payload := bytes.Repeat([]byte{0x5A}, 64)
	var f Frame
	var id uint64
	allocs := testing.AllocsPerRun(1000, func() {
		pos, buf := r.Claim()
		buf = append(buf, payload...)
		if err := r.Publish(pos, 1, id, buf); err != nil {
			t.Fatal(err)
		}
		id++
		ok, err := r.Consume(&f)
		if err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		r.Release()
	})
	if allocs != 0 {
		t.Fatalf("ring enqueue/dequeue allocates %.1f/op, want 0", allocs)
	}
}

// TestClaimUnblocksOnClose proves a producer spinning on a full ring bails
// out when the region closes instead of spinning forever.
func TestClaimUnblocksOnClose(t *testing.T) {
	l := Layout{SlotSize: 256, SubmitSlots: 2, CompleteSlots: 2}
	reg := newTestRegion(t, l)
	r := reg.Submit
	for i := 0; i < 2; i++ {
		mustPublish(t, r, 1, uint64(i), nil)
	}
	var got atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, buf := r.Claim()
		got.Store(buf == nil)
	}()
	time.Sleep(2 * time.Millisecond)
	reg.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Claim still spinning after Close")
	}
	if !got.Load() {
		t.Fatal("Claim returned a buffer from a closed ring")
	}
}
