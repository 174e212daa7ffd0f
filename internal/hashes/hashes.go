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
// Both hot paths — shard routing (Sum64) and the VAT probe (ArgSet) — hash
// on every check, so the implementation is slicing-by-8: selected bytes are
// gathered into a contiguous buffer and consumed eight at a time through
// eight derived tables, one table lookup per input byte but only one
// dependent chain step per eight bytes. The hardware LFSR this models
// consumes the whole argument set in 3 cycles (§XI-C); slicing-by-8 is the
// software analog of widening the datapath.
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
		crc ^= binary.LittleEndian.Uint64(p)
		crc = t[7][byte(crc)] ^
			t[6][byte(crc>>8)] ^
			t[5][byte(crc>>16)] ^
			t[4][byte(crc>>24)] ^
			t[3][byte(crc>>32)] ^
			t[2][byte(crc>>40)] ^
			t[1][byte(crc>>48)] ^
			t[0][byte(crc>>56)]
		p = p[8:]
	}
	if len(p) >= 4 {
		crc ^= uint64(binary.LittleEndian.Uint32(p))
		crc = t[3][byte(crc)] ^
			t[2][byte(crc>>8)] ^
			t[1][byte(crc>>16)] ^
			t[0][byte(crc>>24)] ^
			crc>>32
		p = p[4:]
	}
	for _, b := range p {
		crc = t[0][byte(crc)^b] ^ (crc >> 8)
	}
	return crc
}

// crcUpdatePair advances both hash functions over p in one pass: the two
// CRCs have no data dependency on each other, so interleaving them fills
// the load ports instead of walking the buffer twice. A 4-byte tail — the
// declared width of int/fd/flags arguments, so most argument sets end in
// one — takes a single slicing-by-4 step instead of four dependent loads.
func crcUpdatePair(h1, h2 uint64, p []byte) (uint64, uint64) {
	for len(p) >= 8 {
		w := binary.LittleEndian.Uint64(p)
		h1 ^= w
		h2 ^= w
		h1 = ecmaTable[7][byte(h1)] ^
			ecmaTable[6][byte(h1>>8)] ^
			ecmaTable[5][byte(h1>>16)] ^
			ecmaTable[4][byte(h1>>24)] ^
			ecmaTable[3][byte(h1>>32)] ^
			ecmaTable[2][byte(h1>>40)] ^
			ecmaTable[1][byte(h1>>48)] ^
			ecmaTable[0][byte(h1>>56)]
		h2 = notEcmaTable[7][byte(h2)] ^
			notEcmaTable[6][byte(h2>>8)] ^
			notEcmaTable[5][byte(h2>>16)] ^
			notEcmaTable[4][byte(h2>>24)] ^
			notEcmaTable[3][byte(h2>>32)] ^
			notEcmaTable[2][byte(h2>>40)] ^
			notEcmaTable[1][byte(h2>>48)] ^
			notEcmaTable[0][byte(h2>>56)]
		p = p[8:]
	}
	if len(p) >= 4 {
		w := uint64(binary.LittleEndian.Uint32(p))
		h1 ^= w
		h2 ^= w
		h1 = ecmaTable[3][byte(h1)] ^
			ecmaTable[2][byte(h1>>8)] ^
			ecmaTable[1][byte(h1>>16)] ^
			ecmaTable[0][byte(h1>>24)] ^
			h1>>32
		h2 = notEcmaTable[3][byte(h2)] ^
			notEcmaTable[2][byte(h2>>8)] ^
			notEcmaTable[1][byte(h2>>16)] ^
			notEcmaTable[0][byte(h2>>24)] ^
			h2>>32
		p = p[4:]
	}
	for _, b := range p {
		h1 = ecmaTable[0][byte(h1)^b] ^ (h1 >> 8)
		h2 = notEcmaTable[0][byte(h2)^b] ^ (h2 >> 8)
	}
	return h1, h2
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
	if bitmask == 0 {
		// No selected bytes: both CRCs of the empty string.
		return Pair{}
	}
	// Gather the selected bytes (in argument, then byte order — the wire
	// order the bitmask defines) into a stack buffer, then run both CRCs
	// over it with the slicing path. Fully-selected arguments — the common
	// case, since bitmasks cover whole declared widths — copy as one word.
	var buf [syscalls.MaxArgs * syscalls.ArgBytes]byte
	n := 0
	for i := 0; i < syscalls.MaxArgs; i++ {
		byteBits := (bitmask >> uint(i*syscalls.ArgBytes)) & 0xff
		if byteBits == 0 {
			continue
		}
		a := args[i]
		switch byteBits {
		case 0xff: // full 8-byte argument
			binary.LittleEndian.PutUint64(buf[n:], a)
			n += syscalls.ArgBytes
		case 0x0f: // 4-byte declared width (int/fd/flags), the common case
			binary.LittleEndian.PutUint32(buf[n:], uint32(a))
			n += 4
		default:
			for b := 0; b < syscalls.ArgBytes; b++ {
				if byteBits&(1<<uint(b)) == 0 {
					continue
				}
				buf[n] = byte(a >> uint(b*8))
				n++
			}
		}
	}
	h1, h2 := crcUpdatePair(^uint64(0), ^uint64(0), buf[:n])
	return Pair{H1: ^h1, H2: ^h2}
}

// Sum64 returns the CRC-64/ECMA code of an arbitrary byte string. The
// concurrent checker uses it to spread (syscall ID, argument-set hash) keys
// across VAT shards with the same hash family the VAT itself uses.
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
