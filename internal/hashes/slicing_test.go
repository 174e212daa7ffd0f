package hashes

import (
	"hash/crc64"
	"math/rand"
	"testing"

	"draco/internal/syscalls"
)

// --- bytewise reference (the pre-slicing implementation) -------------------
//
// The slicing-by-8 rewrite must be bit-identical to the original bytewise
// CRC: every committed VAT layout and recorded result depends on these
// hash values. The reference below is the old loop, kept
// test-only, and doubles as the baseline for the speedup benchmarks.

func referenceUpdate(crc uint64, t *[256]uint64, b byte) uint64 {
	return t[byte(crc)^b] ^ (crc >> 8)
}

func referenceSum64(b []byte) uint64 {
	h := ^uint64(0)
	for _, v := range b {
		h = referenceUpdate(h, &ecmaTable[0], v)
	}
	return ^h
}

func referenceArgSet(args Args, bitmask uint64) Pair {
	h1 := ^uint64(0)
	h2 := ^uint64(0)
	for i := 0; i < syscalls.MaxArgs; i++ {
		byteBits := (bitmask >> uint(i*syscalls.ArgBytes)) & 0xff
		if byteBits == 0 {
			continue
		}
		a := args[i]
		for b := 0; b < syscalls.ArgBytes; b++ {
			if byteBits&(1<<uint(b)) == 0 {
				continue
			}
			v := byte(a >> uint(b*8))
			h1 = referenceUpdate(h1, &ecmaTable[0], v)
			h2 = referenceUpdate(h2, &notEcmaTable[0], v)
		}
	}
	return Pair{H1: ^h1, H2: ^h2}
}

func TestSum64MatchesBytewiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		if got, want := Sum64(b), referenceSum64(b); got != want {
			t.Fatalf("Sum64(%x) = %#x, reference %#x", b, got, want)
		}
	}
}

// TestSum64MatchesStdlib pins the polynomial convention against an
// independent implementation: the repo's CRC-64/ECMA is the same function
// as hash/crc64's ECMA (init ^0, final ^, reversed polynomial).
func TestSum64MatchesStdlib(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		b := make([]byte, rng.Intn(128))
		rng.Read(b)
		if got, want := Sum64(b), crc64.Checksum(b, tab); got != want {
			t.Fatalf("Sum64(%x) = %#x, stdlib %#x", b, got, want)
		}
	}
}

func TestArgSetMatchesBytewiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	masks := []uint64{
		0,             // ID-only
		0xff,          // one full argument
		0x0f,          // 4-byte declared width
		0x01,          // single byte
		0xffff,        // two full arguments
		0x0f0f,        // two 4-byte arguments
		0xff00ff,      // args 0 and 2 full
		(1 << 48) - 1, // every byte of every argument
	}
	for trial := 0; trial < 1000; trial++ {
		var args Args
		for i := range args {
			args[i] = rng.Uint64()
		}
		mask := masks[trial%len(masks)]
		if trial%3 == 0 {
			mask = rng.Uint64() & ((1 << syscalls.BitmaskBits) - 1)
		}
		got, want := ArgSet(args, mask), referenceArgSet(args, mask)
		if got != want {
			t.Fatalf("ArgSet(%v, %#x) = %+v, reference %+v", args, mask, got, want)
		}
	}
	// Every gathered length 0..48, so each tail shape after the last whole
	// word (0-7 bytes: nothing, bytewise only, the 4-byte step alone, the
	// step plus bytes) is pinned — once with the selected bytes packed low
	// and once scattered over the lanes.
	for n := 0; n <= syscalls.BitmaskBits; n++ {
		packed := uint64(1)<<uint(n) - 1
		var scattered uint64
		for _, bit := range rng.Perm(syscalls.BitmaskBits)[:n] {
			scattered |= 1 << uint(bit)
		}
		for _, mask := range []uint64{packed, scattered} {
			var args Args
			for i := range args {
				args[i] = rng.Uint64()
			}
			if got, want := ArgSet(args, mask), referenceArgSet(args, mask); got != want {
				t.Fatalf("%d selected bytes: ArgSet(%v, %#x) = %+v, reference %+v", n, args, mask, got, want)
			}
		}
	}
}

// TestSingleHashesMatchArgSet pins the one-polynomial entry points a
// probe uses when it computes H2 only after H1's slot missed: ArgH1 and
// ArgH2 must equal ArgSet's H1 and H2 (and ArgSetOf must equal ArgSet) over
// random masks, irregular lanes, and every selected-byte count 0..48.
func TestSingleHashesMatchArgSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	masks := []uint64{
		0, 0xff, 0x0f, 0x01, 0x80, 0x7e, 0xf0, 0x0f0f000f, 0xff0f, (1 << 48) - 1,
	}
	for trial := 0; trial < 1000; trial++ {
		masks = append(masks, rng.Uint64()&((1<<syscalls.BitmaskBits)-1))
	}
	for n := 0; n <= syscalls.BitmaskBits; n++ {
		masks = append(masks, uint64(1)<<uint(n)-1)
		var scattered uint64
		for _, bit := range rng.Perm(syscalls.BitmaskBits)[:n] {
			scattered |= 1 << uint(bit)
		}
		masks = append(masks, scattered)
	}
	for _, mask := range masks {
		var args Args
		for i := range args {
			args[i] = rng.Uint64()
		}
		want := ArgSet(args, mask)
		if got := ArgSetOf(&args, mask); got != want {
			t.Fatalf("ArgSetOf(%v, %#x) = %+v, ArgSet %+v", args, mask, got, want)
		}
		if h1, h2 := ArgH1(&args, mask), ArgH2(&args, mask); h1 != want.H1 || h2 != want.H2 {
			t.Fatalf("ArgH1/ArgH2(%v, %#x) = %#x/%#x, ArgSet %+v", args, mask, h1, h2, want)
		}
	}
}

// --- benchmarks: the routing + VAT-probe hash path ------------------------
//
// BenchmarkHashSum64Route and BenchmarkHashArgSet* measure the two
// hash costs (a 16-byte key; the VAT probe over the masked argument
// bytes); the *Bytewise variants run the pre-slicing
// reference so the speedup is visible in one `go test -bench Hash` run.

func benchArgs() (Args, uint64) {
	return Args{3, 0xdeadbeef, 4096, 0, 0, 0}, 0x0f00ff0f // typical fd/flags/len widths
}

func BenchmarkHashSum64Route(b *testing.B) {
	var key [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		_ = Sum64(key[:])
	}
}

func BenchmarkHashSum64RouteBytewise(b *testing.B) {
	var key [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		_ = referenceSum64(key[:])
	}
}

func BenchmarkHashArgSet(b *testing.B) {
	args, mask := benchArgs()
	for i := 0; i < b.N; i++ {
		args[0] = uint64(i)
		_ = ArgSet(args, mask)
	}
}

func BenchmarkHashArgSetBytewise(b *testing.B) {
	args, mask := benchArgs()
	for i := 0; i < b.N; i++ {
		args[0] = uint64(i)
		_ = referenceArgSet(args, mask)
	}
}

func BenchmarkHashArgSetAllBytes(b *testing.B) {
	args, _ := benchArgs()
	mask := uint64(1<<syscalls.BitmaskBits) - 1
	b.SetBytes(syscalls.BitmaskBits)
	for i := 0; i < b.N; i++ {
		args[0] = uint64(i)
		_ = ArgSet(args, mask)
	}
}

func BenchmarkHashArgSetAllBytesBytewise(b *testing.B) {
	args, _ := benchArgs()
	mask := uint64(1<<syscalls.BitmaskBits) - 1
	b.SetBytes(syscalls.BitmaskBits)
	for i := 0; i < b.N; i++ {
		args[0] = uint64(i)
		_ = referenceArgSet(args, mask)
	}
}

func BenchmarkHashArgH1(b *testing.B) {
	args, mask := benchArgs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		args[0] = uint64(i)
		sink += ArgH1(&args, mask)
	}
	_ = sink
}
