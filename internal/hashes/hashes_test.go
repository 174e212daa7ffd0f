package hashes

import (
	"encoding/binary"
	"hash/crc64"
	"testing"
	"testing/quick"

	"draco/internal/syscalls"
)

func fullMask(nargs int) uint64 {
	var m uint64
	for i := 0; i < nargs; i++ {
		m |= 0xff << uint(i*syscalls.ArgBytes)
	}
	return m
}

// TestECMAMatchesStdlib pins the polynomial convention against an
// independent implementation: H1 is hash/crc64's ECMA (init ^0, final ^,
// reversed polynomial) of the selected bytes, little-endian, argument by
// argument. It covers one 8-byte step, six chained 8-byte steps (a full
// 48-byte mask) and a 4-byte lane's step.
func TestECMAMatchesStdlib(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	args := Args{0x1122334455667788, 0xdeadbeefcafef00d, 3, 1 << 63, 0x0102030405060708, ^uint64(0)}
	le := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	var low4 []byte
	for _, a := range args[:3] {
		low4 = binary.LittleEndian.AppendUint32(low4, uint32(a))
	}
	for _, tc := range []struct {
		name string
		mask uint64
		want []byte
	}{
		{"one arg", 0xff, le(args[0])},
		{"six args", fullMask(6), le(args[:]...)},
		{"three 0x0f lanes", 0x0f0f0f, low4},
	} {
		want := crc64.Checksum(tc.want, tab)
		if got := ArgH1(&args, tc.mask); got != want {
			t.Fatalf("%s: ArgH1 = %#x, want stdlib ECMA %#x", tc.name, got, want)
		}
		if got := ArgSet(args, tc.mask).H1; got != want {
			t.Fatalf("%s: ArgSet.H1 = %#x, want stdlib ECMA %#x", tc.name, got, want)
		}
	}
}

func TestHashesIndependent(t *testing.T) {
	args := Args{42, 7}
	p := ArgSet(args, fullMask(2))
	if p.H1 == p.H2 {
		t.Fatal("H1 and H2 collide on a trivial input; polynomials not independent")
	}
}

func TestEmptyMask(t *testing.T) {
	a := ArgSet(Args{1, 2, 3, 4, 5, 6}, 0)
	b := ArgSet(Args{}, 0)
	if a != b {
		t.Fatal("empty bitmask should ignore all argument values")
	}
}

func TestMaskSelectsBytes(t *testing.T) {
	// Only byte 0 of arg 0 is selected: changing higher bytes of arg 0 or
	// any other arg must not change the hash.
	m := uint64(0x01)
	base := ArgSet(Args{0x00000000000000AB}, m)
	same := ArgSet(Args{0xFFFFFFFFFFFF00AB, 99, 99, 99, 99, 99}, m)
	if base != same {
		t.Fatal("unselected bytes influenced the hash")
	}
	diff := ArgSet(Args{0x00000000000000AC}, m)
	if base == diff {
		t.Fatal("selected byte change did not change the hash")
	}
}

func TestPairSelect(t *testing.T) {
	p := ArgSet(Args{123}, 0xff)
	if p.Select(p.H1) != 1 {
		t.Error("Select(H1) != 1")
	}
	if p.Select(p.H2) != 2 {
		t.Error("Select(H2) != 2")
	}
	if p.Select(p.H1^1) != -1 {
		t.Error("Select(garbage) != -1")
	}
}

func TestQuickDeterminism(t *testing.T) {
	f := func(a0, a1, a2, a3, a4, a5, mask uint64) bool {
		args := Args{a0, a1, a2, a3, a4, a5}
		mask &= (1 << syscalls.BitmaskBits) - 1
		return ArgSet(args, mask) == ArgSet(args, mask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaskedBytesOnly(t *testing.T) {
	// Property: flipping a byte outside the mask never changes either hash.
	f := func(a0 uint64, mask uint64, whichByte uint8, noise uint8) bool {
		mask &= (1 << syscalls.BitmaskBits) - 1
		bit := uint(whichByte) % syscalls.BitmaskBits
		if mask&(1<<bit) != 0 {
			return true // byte is inside the mask; nothing to assert
		}
		args := Args{a0, a0 ^ 1, a0 ^ 2, a0 ^ 3, a0 ^ 4, a0 ^ 5}
		mut := args
		arg, byt := bit/syscalls.ArgBytes, bit%syscalls.ArgBytes
		mut[arg] ^= uint64(noise|1) << (byt * 8)
		return ArgSet(args, mask) == ArgSet(mut, mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCollisionResistanceSmoke(t *testing.T) {
	// Not a cryptographic claim: just check distinct single-arg values do
	// not collide in a small sample, which the cuckoo VAT relies on
	// statistically.
	seen := map[uint64]uint64{}
	for v := uint64(0); v < 4096; v++ {
		h := ArgSet(Args{v}, 0xff).H1
		if prev, dup := seen[h]; dup {
			t.Fatalf("CRC collision between %d and %d", prev, v)
		}
		seen[h] = v
	}
}

func BenchmarkArgSetSixArgs(b *testing.B) {
	mask := fullMask(6)
	args := Args{1, 2, 3, 4, 5, 6}
	for i := 0; i < b.N; i++ {
		_ = ArgSet(args, mask)
	}
}

func BenchmarkArgSetOneArg(b *testing.B) {
	args := Args{0xdeadbeef}
	for i := 0; i < b.N; i++ {
		_ = ArgSet(args, 0xff)
	}
}
