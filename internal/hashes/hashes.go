// Package hashes implements the two hash functions Draco uses for its
// Validated Argument Table: the CRC-64 code under the ECMA-182 polynomial and
// under its bitwise complement (paper §VII-A: "we use the ECMA and the ¬ECMA
// polynomials to compute the Cyclic Redundancy Check (CRC) code of the system
// call argument set").
//
// Hashing is always performed over the bytes the SPT Argument Bitmask
// selects: one bit per argument byte, so pointer arguments and absent
// arguments never influence the hash (paper §V-B).
//
// The VAT probe hashes on every argument-checked check, so the
// implementation is slicing-by-8: eight derived tables, one table lookup
// per input byte but only one dependent chain step per eight bytes. An
// argument set is consumed in place, lane by lane — a fully selected
// argument in one 8-byte step, a 4-byte declared width in one 4-byte step,
// other lanes bytewise — with no gather buffer in between. The hardware
// LFSR this models consumes the whole argument set in 3 cycles (§XI-C);
// slicing-by-8 is the software analog of widening the datapath. ArgH1 and
// ArgH2 compute one polynomial each, for a probe that needs H2 only when
// H1's slot misses.
package hashes

import (
	"encoding/binary"

	"draco/internal/syscalls"
)

// ECMAPoly is the CRC-64/ECMA-182 polynomial in the reversed (LSB-first)
// representation used by table-driven implementations.
const ECMAPoly = 0xC96C5795D7870F42

// NotECMAPoly is the bitwise complement of the ECMA polynomial; it defines
// Draco's second, independent hash function H2.
const NotECMAPoly = ^uint64(ECMAPoly) | 1 // force odd so the LSB-first CRC stays full-period

var (
	ecmaTable    [8][256]uint64
	notEcmaTable [8][256]uint64
)

func init() {
	fillTables(&ecmaTable, ECMAPoly)
	fillTables(&notEcmaTable, NotECMAPoly)
}

// fillTables builds the slicing-by-8 table set: t[0] is the classic bytewise
// table; t[k][i] advances a byte through k additional zero bytes, so eight
// lookups combine into one 8-byte step.
func fillTables(t *[8][256]uint64, poly uint64) {
	for i := 0; i < 256; i++ {
		crc := uint64(i)
		for j := 0; j < 8; j++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
		t[0][i] = crc
	}
	for k := 1; k < 8; k++ {
		for i := 0; i < 256; i++ {
			prev := t[k-1][i]
			t[k][i] = t[0][byte(prev)] ^ (prev >> 8)
		}
	}
}

// crcUpdate advances crc over p: whole 8-byte blocks through the slicing
// tables, then a 4-byte block through the low four, the rest bytewise.
func crcUpdate(crc uint64, t *[8][256]uint64, p []byte) uint64 {
	for len(p) >= 8 {
		crc = step8(crc^binary.LittleEndian.Uint64(p), t)
		p = p[8:]
	}
	if len(p) >= 4 {
		crc = step4(crc^uint64(binary.LittleEndian.Uint32(p)), t)
		p = p[4:]
	}
	for _, b := range p {
		crc = t[0][byte(crc)^b] ^ (crc >> 8)
	}
	return crc
}

// step8 advances crc, already XORed with the next eight input bytes, by
// one slicing-by-8 step.
func step8(crc uint64, t *[8][256]uint64) uint64 {
	return t[7][byte(crc)] ^
		t[6][byte(crc>>8)] ^
		t[5][byte(crc>>16)] ^
		t[4][byte(crc>>24)] ^
		t[3][byte(crc>>32)] ^
		t[2][byte(crc>>40)] ^
		t[1][byte(crc>>48)] ^
		t[0][byte(crc>>56)]
}

// step4 advances crc, already XORed with the next four input bytes in its
// low half, by one slicing-by-4 step.
func step4(crc uint64, t *[8][256]uint64) uint64 {
	return t[3][byte(crc)] ^
		t[2][byte(crc>>8)] ^
		t[1][byte(crc>>16)] ^
		t[0][byte(crc>>24)] ^
		crc>>32
}

// stepBytes advances crc over the bytes of a that byteBits selects, low
// byte first.
func stepBytes(crc uint64, t *[8][256]uint64, a, byteBits uint64) uint64 {
	for b := uint(0); byteBits != 0; b, byteBits = b+8, byteBits>>1 {
		if byteBits&1 != 0 {
			crc = t[0][byte(crc)^byte(a>>b)] ^ (crc >> 8)
		}
	}
	return crc
}

// crcArgs advances crc over the bytes of args that bitmask selects, lane
// by lane: a fully selected argument is one 8-byte step, a 4-byte declared
// width (int/fd/flags, the common case) one 4-byte step, any other lane
// bytewise. The selected bytes are never gathered into a buffer, so no
// narrow store is re-read as a wider load.
func crcArgs(crc uint64, t *[8][256]uint64, args *Args, bitmask uint64) uint64 {
	for i := range args {
		switch lane := (bitmask >> uint(i*syscalls.ArgBytes)) & 0xff; lane {
		case 0:
		case 0xff:
			crc = step8(crc^args[i], t)
		case 0x0f:
			crc = step4(crc^uint64(uint32(args[i])), t)
		default:
			crc = stepBytes(crc, t, args[i], lane)
		}
	}
	return crc
}

// Pair holds both hash values of an argument set. Draco computes both in
// parallel to probe the two ways of the VAT's cuckoo table.
type Pair struct {
	H1 uint64 // CRC-64/ECMA
	H2 uint64 // CRC-64/¬ECMA
}

// Args is a system call argument vector.
type Args = [syscalls.MaxArgs]uint64

// ArgSet hashes the bytes of args selected by bitmask (the SPT Argument
// Bitmask: bit k selects byte k%8 of argument k/8) and returns both CRCs.
func ArgSet(args Args, bitmask uint64) Pair {
	return ArgSetOf(&args, bitmask)
}

// ArgSetOf is ArgSet on an argument vector the caller keeps in place. The
// two CRCs have no data dependency on each other, so they advance lane by
// lane side by side, which fills the load ports instead of walking the
// arguments twice.
func ArgSetOf(args *Args, bitmask uint64) Pair {
	h1, h2 := ^uint64(0), ^uint64(0)
	for i := range args {
		a := args[i]
		switch lane := (bitmask >> uint(i*syscalls.ArgBytes)) & 0xff; lane {
		case 0:
		case 0xff:
			h1 = step8(h1^a, &ecmaTable)
			h2 = step8(h2^a, &notEcmaTable)
		case 0x0f:
			h1 = step4(h1^uint64(uint32(a)), &ecmaTable)
			h2 = step4(h2^uint64(uint32(a)), &notEcmaTable)
		default:
			h1 = stepBytes(h1, &ecmaTable, a, lane)
			h2 = stepBytes(h2, &notEcmaTable, a, lane)
		}
	}
	return Pair{H1: ^h1, H2: ^h2}
}

// ArgH1 is ArgSetOf(args, bitmask).H1 alone: the first hash a probe needs,
// for callers that compute H2 only when H1's slot misses.
func ArgH1(args *Args, bitmask uint64) uint64 {
	return ^crcArgs(^uint64(0), &ecmaTable, args, bitmask)
}

// ArgH2 is ArgSetOf(args, bitmask).H2 alone.
func ArgH2(args *Args, bitmask uint64) uint64 {
	return ^crcArgs(^uint64(0), &notEcmaTable, args, bitmask)
}

// Sum64 returns the CRC-64/ECMA code of an arbitrary byte string, in the
// hash family the VAT uses.
func Sum64(b []byte) uint64 {
	return ^crcUpdate(^uint64(0), &ecmaTable, b)
}

// Select returns which of the pair's values matches h, or -1. The SLB and
// STB store the single hash value that located the entry in the VAT
// ("the one hash value (of the two possible) that fetched this argument
// set", paper §VI-B); Select recovers which function that was.
func (p Pair) Select(h uint64) int {
	switch h {
	case p.H1:
		return 1
	case p.H2:
		return 2
	default:
		return -1
	}
}

// CyclesPerHash is the latency, in 2 GHz core cycles, of computing the CRC
// hash in hardware. The paper's Synopsys analysis reports 964 ps for the
// LFSR implementation and accounts 3 cycles (§XI-C, Table III).
const CyclesPerHash = 3
