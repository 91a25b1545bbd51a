// Package hashx provides the hash-function substrate used by every sketch
// in this repository: fast 64- and 128-bit non-cryptographic hashes
// (xxHash64, Murmur3), seeded hash builders, k-wise independent
// polynomial hash families over the Mersenne prime 2^61-1, and
// tabulation hashing.
//
// Sketch algorithms need hashing that is "random but repeatable"
// (Cormode, PODS 2023, §1): the same item must map to the same value on
// every update, while different seeds must give effectively independent
// functions. All constructions here are deterministic given their seed,
// which keeps every experiment in this repository reproducible.
package hashx

import (
	"encoding/binary"
	"math/bits"
)

// Hasher64 maps byte strings to 64-bit values. Implementations must be
// deterministic: equal inputs always produce equal outputs.
type Hasher64 interface {
	Hash64(data []byte) uint64
}

// Hasher64Func adapts a plain function to the Hasher64 interface.
type Hasher64Func func(data []byte) uint64

// Hash64 calls f(data).
func (f Hasher64Func) Hash64(data []byte) uint64 { return f(data) }

// Seeded returns a Hasher64 computing xxHash64 with the given seed.
// Distinct seeds behave as approximately independent hash functions,
// which is the standard engineering substitute for the pairwise
// independent families assumed in the analyses.
func Seeded(seed uint64) Hasher64 {
	return Hasher64Func(func(data []byte) uint64 { return XXHash64(data, seed) })
}

// Uint64Bytes returns the 8-byte little-endian encoding of v. It is the
// canonical way the sketches in this module feed integer items into a
// byte-oriented hash.
func Uint64Bytes(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// HashUint64 hashes a uint64 item under the given seed without
// allocating. It applies a strong 128->64 bit mix (derived from
// xxHash64's avalanche over the seed and value) and is the hot path for
// integer-keyed sketches.
func HashUint64(v, seed uint64) uint64 {
	h := seed + prime5 + 8
	h ^= round(0, v)
	h = rol27(h)*prime1 + prime4
	return avalanche(h)
}

// FastRange maps a uniform 64-bit value to [0, n) with a multiply-high
// instead of a modulo (Lemire's fastrange). On the sketch hot paths the
// saved 64-bit division is the single largest per-row cost.
func FastRange(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}

// DeriveH2 expands a single 64-bit item hash into the second
// double-hashing stream: g_i(x) = h + i·DeriveH2(h). The low bit is
// forced so the stride is never zero. Every sketch that accepts a
// pre-hashed item through a single-uint64 AddHash derives its per-row
// positions this way, which keeps "hash once, update everywhere"
// pipelines position-compatible across sketch types.
func DeriveH2(h uint64) uint64 {
	return Mix64(h) | 1
}

// Mix64 applies the SplitMix64 finalizer, a full-avalanche 64-bit
// mixing function. It is used to derive independent seeds from a master
// seed and as a cheap integer hash in tests.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SeedSequence deterministically expands a master seed into n
// decorrelated sub-seeds using the SplitMix64 sequence. Sketches with
// multiple rows (Count-Min, Count Sketch, AMS) use it so that a single
// user-provided seed configures the whole structure.
func SeedSequence(master uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	state := master
	for i := range seeds {
		state += 0x9e3779b97f4a7c15
		seeds[i] = Mix64(state)
	}
	return seeds
}
