package cuckoo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"draco/internal/hashes"
)

const testMask = 0xff | 0xff<<8 // all bytes of args 0 and 1 checked

func args(a, b uint64) hashes.Args {
	return hashes.Args{a, b}
}

func TestInsertLookup(t *testing.T) {
	tb := New(8, testMask)
	h := tb.Insert(args(1, 2))
	if h == 0 {
		t.Fatal("Insert returned zero hash")
	}
	found, way, _ := tb.Lookup(args(1, 2))
	if !found {
		t.Fatal("inserted entry not found")
	}
	if way != 1 && way != 2 {
		t.Fatalf("way = %d", way)
	}
	if found, _, _ := tb.Lookup(args(1, 3)); found {
		t.Fatal("absent entry found")
	}
}

func TestInsertIdempotent(t *testing.T) {
	tb := New(8, testMask)
	h1 := tb.Insert(args(7, 7))
	h2 := tb.Insert(args(7, 7))
	if h1 != h2 {
		t.Fatalf("re-insert moved entry: %#x vs %#x", h1, h2)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

func TestLookupHash(t *testing.T) {
	tb := New(8, testMask)
	h := tb.Insert(args(11, 22))
	e, ok := tb.LookupHash(h)
	if !ok {
		t.Fatal("LookupHash missed stored hash")
	}
	if e.Args[0] != 11 || e.Args[1] != 22 {
		t.Fatalf("LookupHash returned %v", e.Args)
	}
	if _, ok := tb.LookupHash(h ^ 0xdeadbeef00000000); ok {
		// May legitimately hit only if another entry collides; table has
		// one entry, so a hit here is a bug.
		t.Fatal("LookupHash hit on garbage hash")
	}
}

func TestRemove(t *testing.T) {
	tb := New(8, testMask)
	tb.Insert(args(5, 6))
	if !tb.Remove(args(5, 6)) {
		t.Fatal("Remove missed present entry")
	}
	if tb.Remove(args(5, 6)) {
		t.Fatal("Remove found deleted entry")
	}
	if found, _, _ := tb.Lookup(args(5, 6)); found {
		t.Fatal("deleted entry still visible")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after delete", tb.Len())
	}
}

func TestClear(t *testing.T) {
	tb := New(8, testMask)
	for i := uint64(0); i < 8; i++ {
		tb.Insert(args(i, i))
	}
	tb.Clear()
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after Clear", tb.Len())
	}
	for i := uint64(0); i < 8; i++ {
		if found, _, _ := tb.Lookup(args(i, i)); found {
			t.Fatalf("entry %d survived Clear", i)
		}
	}
}

func TestOverProvisioning(t *testing.T) {
	tb := New(10, testMask)
	if tb.Cap() < 10*OverProvision {
		t.Fatalf("Cap = %d, want >= %d (2x rule)", tb.Cap(), 10*OverProvision)
	}
}

func TestMaskedEquality(t *testing.T) {
	// Bytes outside the mask must not distinguish entries.
	tb := New(8, 0x01) // only byte 0 of arg 0
	tb.Insert(args(0xAB, 0))
	found, _, _ := tb.Lookup(hashes.Args{0xFFFFFFFFFFFF00AB, 123, 9, 9, 9, 9})
	if !found {
		t.Fatal("masked-equal entry not found")
	}
}

func TestFillToCapacityWithEvictions(t *testing.T) {
	// Overfill a small table; every insert must terminate and the table
	// must remain internally consistent.
	tb := New(4, testMask) // 8 slots
	rng := rand.New(rand.NewSource(1))
	inserted := make([]hashes.Args, 0, 64)
	for i := 0; i < 64; i++ {
		a := args(rng.Uint64()%1000, rng.Uint64()%1000)
		tb.Insert(a)
		inserted = append(inserted, a)
	}
	if tb.Len() > tb.Cap() {
		t.Fatalf("Len %d exceeds Cap %d", tb.Len(), tb.Cap())
	}
	// Everything the table claims to hold must be findable.
	for _, e := range tb.Entries() {
		found, _, _ := tb.Lookup(e.Args)
		if !found {
			t.Fatalf("resident entry %v not found by Lookup", e.Args)
		}
	}
	if tb.Evictions() == 0 && tb.Len() == tb.Cap() {
		t.Log("table full without evictions (acceptable, hash-dependent)")
	}
	_ = inserted
}

func TestQuickInsertThenFind(t *testing.T) {
	// Property: in a comfortably-sized table, an inserted set is always
	// findable and LookupHash with the returned hash yields the same args.
	tb := New(4096, testMask)
	f := func(a, b uint64) bool {
		h := tb.Insert(args(a, b))
		found, _, _ := tb.Lookup(args(a, b))
		if !found {
			return false
		}
		e, ok := tb.LookupHash(h)
		// Insert's returned hash reflects current residency, so it must
		// resolve to the inserted argument set (CRC-64 collisions between
		// distinct sets are negligible at this sample size).
		return ok && e.Args[0] == a && e.Args[1] == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLenNeverExceedsCap(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		tb := New(4, testMask)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			tb.Insert(args(rng.Uint64()%64, rng.Uint64()%64))
		}
		return tb.Len() <= tb.Cap() && tb.Len() == len(tb.Entries())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBytes(t *testing.T) {
	tb := New(8, testMask)
	if tb.SizeBytes() != tb.Cap()*(48+8) {
		t.Fatalf("SizeBytes = %d, want %d", tb.SizeBytes(), tb.Cap()*56)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tb := New(64, testMask)
	for i := uint64(0); i < 64; i++ {
		tb.Insert(args(i, i*3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(args(uint64(i)%64, (uint64(i)%64)*3))
	}
}

func BenchmarkInsert(b *testing.B) {
	tb := New(1<<16, testMask)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Insert(args(uint64(i), uint64(i)*7))
	}
}

// TestOverProvisionAblation quantifies the §VII-A sizing rule: with exact
// (1x) sizing, dense cuckoo tables hit relocation-failure evictions that
// the paper's 2x rule avoids.
func TestOverProvisionAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sets := make([]hashes.Args, 48)
	for i := range sets {
		sets[i] = args(rng.Uint64(), rng.Uint64())
	}
	tight := NewWithProvision(len(sets), 1, testMask)
	roomy := NewWithProvision(len(sets), 2, testMask)
	for _, a := range sets {
		tight.Insert(a)
		roomy.Insert(a)
	}
	if roomy.Evictions() > 0 {
		t.Fatalf("2x-provisioned table evicted %d entries", roomy.Evictions())
	}
	// Everything must be resident in the roomy table.
	for _, a := range sets {
		if found, _, _ := roomy.Lookup(a); !found {
			t.Fatalf("entry lost from 2x table")
		}
	}
	// The tight table fills to (near) capacity; count residents.
	resident := 0
	for _, a := range sets {
		if found, _, _ := tight.Lookup(a); found {
			resident++
		}
	}
	t.Logf("1x sizing: %d/%d resident, %d evictions; 2x sizing: all resident",
		resident, len(sets), tight.Evictions())
	if resident == len(sets) && tight.Evictions() == 0 {
		t.Skip("hash-dependent: tight table happened to fit; acceptable")
	}
}

// referenceEqualMasked is the per-bit masked compare the word masks
// replaced: it rebuilds each lane's byte mask from the bitmask on every
// call. Kept test-only as the oracle for EqualMasked.
func referenceEqualMasked(a, b hashes.Args, bitmask uint64) bool {
	for i := 0; i < len(a); i++ {
		byteBits := (bitmask >> uint(i*8)) & 0xff
		if byteBits == 0 {
			continue
		}
		var m uint64
		for bb := 0; bb < 8; bb++ {
			if byteBits&(1<<uint(bb)) != 0 {
				m |= 0xff << uint(bb*8)
			}
		}
		if a[i]&m != b[i]&m {
			return false
		}
	}
	return true
}

// TestQuickEqualMaskedMatchesPerBitReference checks the precompiled word
// masks against the per-bit reference over regular and irregular byte
// patterns, on pairs that differ everywhere, nowhere, in one byte, and only
// in bytes the mask does not select.
func TestQuickEqualMaskedMatchesPerBitReference(t *testing.T) {
	lanes := []uint64{0x00, 0xff, 0x0f, 0x03, 0xa5, 0x01, 0x80, 0xf0}
	f := func(a, b hashes.Args, random uint64, pick [6]uint8, flip uint8) bool {
		var patterned uint64
		for i, p := range pick {
			patterned |= lanes[int(p)%len(lanes)] << uint(i*8)
		}
		for _, bitmask := range []uint64{patterned, random & (1<<48 - 1), 0, 1<<48 - 1} {
			wm := ExpandMask(bitmask)
			// onlyUnselected equals a on exactly the selected bytes, so it
			// must compare equal however the other bytes differ.
			var onlyUnselected hashes.Args
			for i := range a {
				onlyUnselected[i] = a[i]&wm[i] | b[i]&^wm[i]
			}
			oneByte := a
			oneByte[int(flip)%6] ^= 0xff << (uint(flip) / 6 % 8 * 8)
			if !EqualMasked(&a, &onlyUnselected, &wm) {
				return false
			}
			for _, other := range []hashes.Args{b, a, onlyUnselected, oneByte} {
				if EqualMasked(&a, &other, &wm) != referenceEqualMasked(a, other, bitmask) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPutReportsResidency fills exactly-provisioned 16-slot tables past
// what their relocation chains can place. The set a chain drops can be the
// one being inserted; Put must then say so instead of naming a slot that
// holds something else.
func TestPutReportsResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	lost := 0
	for table := 0; table < 800; table++ {
		tb := NewWithProvision(16, 1, testMask)
		for i := 0; i < 16; i++ {
			a := args(rng.Uint64(), rng.Uint64())
			h, resident := tb.Put(a)
			found, way, pair := tb.Lookup(a)
			if resident != found {
				t.Fatalf("table %d insert %d: Put resident=%v, Lookup found=%v", table, i, resident, found)
			}
			if !resident {
				lost++
				if h != 0 {
					t.Fatalf("non-resident set reported under hash %#x", h)
				}
				continue
			}
			if want := [3]uint64{0, pair.H1, pair.H2}[way]; h != want {
				t.Fatalf("Put hash %#x, Lookup way %d hash %#x", h, way, want)
			}
		}
	}
	if lost == 0 {
		t.Fatal("no insert lost its own entry: the probe no longer reaches the case it pins")
	}
	t.Logf("%d of %d inserts were dropped by their own relocation chain", lost, 800*16)
}
