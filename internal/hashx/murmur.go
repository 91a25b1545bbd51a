package hashx

import (
	"encoding/binary"
	"math/bits"
)

// Murmur3 x64 128-bit constants (Austin Appleby's MurmurHash3,
// public-domain algorithm).
const (
	murmurC1 uint64 = 0x87c37b91114253d5
	murmurC2 uint64 = 0x4cf5ad432745937f
)

// Murmur3_128 computes the 128-bit Murmur3 (x64 variant) hash of data
// under the given seed, returning the two 64-bit halves. HLL-family
// sketches use the first half for register selection and the second for
// the rank pattern, so a single hash pass serves both purposes — the
// layout matches the widely deployed implementations the paper's §2
// "data sketches project" discussion refers to.
func Murmur3_128(data []byte, seed uint64) (uint64, uint64) {
	h1 := seed
	h2 := seed
	n := len(data)

	for len(data) >= 16 {
		k1 := binary.LittleEndian.Uint64(data[0:8])
		k2 := binary.LittleEndian.Uint64(data[8:16])
		data = data[16:]

		k1 *= murmurC1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= murmurC2
		h1 ^= k1
		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= murmurC2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= murmurC1
		h2 ^= k2
		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	// The tail, 1 to 15 bytes: k1 is the first eight of them and k2 the
	// rest, each read as one partial little-endian word. The reference
	// code picks them up a byte at a time behind a 15-way switch on the
	// length; on short keys of mixed lengths — the served case, where
	// the tail is the whole key — that jump mispredicts and the byte
	// loads chain. Same k1 and k2: TestMurmur3EveryLengthGolden and
	// FuzzMurmur3MatchesReference hold the byte-at-a-time answers.
	if len(data) > 8 {
		k2 := loadTail(data[8:])
		k2 *= murmurC2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= murmurC1
		h2 ^= k2
		data = data[:8]
	}
	if len(data) > 0 {
		k1 := loadTail(data)
		k1 *= murmurC1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= murmurC2
		h1 ^= k1
	}

	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// loadTail reads b, 1 to 8 bytes, as a little-endian integer without a
// loop: eight bytes are one load, four to seven are two 4-byte loads
// that overlap in the middle, one to three are the first, middle and
// last byte (which coincide as needed).
func loadTail(b []byte) uint64 {
	n := len(b)
	if n >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	if n >= 4 {
		return uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[n-4:]))<<((n-4)*8)
	}
	return uint64(b[0]) | uint64(b[n>>1])<<((n>>1)*8) | uint64(b[n-1])<<((n-1)*8)
}

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
