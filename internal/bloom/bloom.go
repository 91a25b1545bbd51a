// Package bloom implements the Bloom filter (Bloom, 1970) — the paper's
// earliest example of a sketch — and its counting variant.
//
// A Bloom filter represents a set as m bits touched by k hash
// functions. Membership queries have no false negatives and a false
// positive rate of approximately (1 − e^{−kn/m})^k after n insertions;
// experiment E3 verifies this curve against theory. Filters built with
// the same shape and seed are mergeable by bitwise OR, which makes the
// union of distributed set summaries exact (in the Bloom sense).
package bloom

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/hashx"
)

// Filter is a classic Bloom filter. The zero value is not usable; use
// New or NewWithEstimates.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
	seed uint64
	n    uint64 // number of insertions (for telemetry and FPR estimation)
}

// New creates a filter with m bits and k hash functions. Hash values
// are derived by the Kirsch–Mitzenmacher double-hashing trick from one
// 128-bit Murmur3 pass, which preserves the asymptotic false-positive
// rate while hashing each item only once.
func New(m uint64, k int, seed uint64) *Filter {
	if m == 0 {
		panic("bloom: m must be positive")
	}
	if k < 1 {
		panic("bloom: k must be >= 1")
	}
	return &Filter{
		bits: make([]uint64, (m+63)/64),
		m:    m,
		k:    k,
		seed: seed,
	}
}

// NewWithEstimates sizes a filter for n expected items at target false
// positive rate p, using the optimal m = −n ln p / (ln 2)² and
// k = (m/n) ln 2.
func NewWithEstimates(n uint64, p float64, seed uint64) *Filter {
	if n == 0 {
		n = 1
	}
	if !(p > 0 && p < 1) {
		panic("bloom: false positive rate must be in (0,1)")
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	if m == 0 {
		m = 1
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return New(m, k, seed)
}

// Add inserts an item: one 128-bit hash pass, k derived positions.
func (f *Filter) Add(item []byte) {
	h1, h2 := hashx.Murmur3_128(item, f.seed)
	f.AddHash(h1, h2)
}

// AddHash inserts an item from its pre-computed 128-bit hash. The k bit
// positions derive by the Kirsch–Mitzenmacher double-hashing trick,
// g_i = h1 + i·h2 reduced into [0, m) without division. Pipelines that
// feed one hash to several sketches use this to skip re-hashing.
func (f *Filter) AddHash(h1, h2 uint64) {
	// Force h2 odd so the stride is never zero.
	h2 |= 1
	for i := 0; i < f.k; i++ {
		pos := hashx.FastRange(h1, f.m)
		f.bits[pos>>6] |= 1 << (pos & 63)
		h1 += h2
	}
	f.n++
}

// AddString inserts a string item without copying or allocating.
func (f *Filter) AddString(item string) {
	h1, h2 := hashx.Murmur3_128String(item, f.seed)
	f.AddHash(h1, h2)
}

// ingestChunk is the chunk size of the two-phase batch loops: hash a
// chunk, then update from it. 256 pairs keep the staging arrays on the
// stack (~4 KB) while giving the memory system a long run of
// independent accesses to overlap; the same figure is used by every
// pipelined batch path in the module.
const ingestChunk = 256

// AddBatch inserts many items with the two-phase pipelined loop: each
// fixed-size chunk is fully hashed first (pure ALU work), then folded
// into the bit array (pure memory work), so consecutive cache misses
// overlap instead of each item's miss serializing behind its hash.
// State after AddBatch is byte-identical to calling Add on each item
// in order.
func (f *Filter) AddBatch(items [][]byte) {
	var h1s, h2s [ingestChunk]uint64
	for len(items) > 0 {
		c := len(items)
		if c > ingestChunk {
			c = ingestChunk
		}
		for i, item := range items[:c] {
			h1s[i], h2s[i] = hashx.Murmur3_128(item, f.seed)
		}
		f.AddHashBatch(h1s[:c], h2s[:c])
		items = items[c:]
	}
}

// AddHashBatch folds many pre-hashed items in. State is identical to
// calling AddHash on each (h1,h2) pair in order; both slices must have
// equal length. Bit-set operations are commutative, so the loop is
// free to let the k probes of consecutive items overlap in the memory
// system.
func (f *Filter) AddHashBatch(h1s, h2s []uint64) {
	if len(h1s) != len(h2s) {
		panic("bloom: AddHashBatch slice lengths differ")
	}
	for i, h1 := range h1s {
		f.AddHash(h1, h2s[i])
	}
}

// Contains reports whether the item may be in the set. False positives
// occur at the configured rate; false negatives never occur.
func (f *Filter) Contains(item []byte) bool {
	h1, h2 := hashx.Murmur3_128(item, f.seed)
	return f.ContainsHash(h1, h2)
}

// ContainsHash answers a membership query from a pre-computed 128-bit
// hash, probing the same k positions AddHash sets.
func (f *Filter) ContainsHash(h1, h2 uint64) bool {
	h2 |= 1
	for i := 0; i < f.k; i++ {
		pos := hashx.FastRange(h1, f.m)
		if f.bits[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

// ContainsString reports whether the string item may be in the set,
// without copying or allocating.
func (f *Filter) ContainsString(item string) bool {
	h1, h2 := hashx.Murmur3_128String(item, f.seed)
	return f.ContainsHash(h1, h2)
}

// Update implements the core.Updater streaming interface.
func (f *Filter) Update(item []byte) { f.Add(item) }

// M returns the number of bits.
func (f *Filter) M() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// N returns the number of insertions performed (including duplicates).
func (f *Filter) N() uint64 { return f.n }

// FillRatio returns the fraction of set bits, the quantity that
// determines the realized false positive rate.
func (f *Filter) FillRatio() float64 {
	var ones int
	for _, w := range f.bits {
		ones += popcount(w)
	}
	return float64(ones) / float64(f.m)
}

// EstimatedFPR predicts the current false positive rate from the fill
// ratio: fill^k.
func (f *Filter) EstimatedFPR() float64 {
	return math.Pow(f.FillRatio(), float64(f.k))
}

// TheoreticalFPR returns the textbook rate (1 − e^{−kn/m})^k for n
// distinct insertions.
func TheoreticalFPR(m uint64, k int, n uint64) float64 {
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// Merge ORs another filter into this one; the result represents the
// union of both sets. Shapes and seeds must match.
func (f *Filter) Merge(other *Filter) error {
	if f.m != other.m || f.k != other.k || f.seed != other.seed {
		return fmt.Errorf("%w: bloom shapes (m=%d,k=%d,seed=%d) vs (m=%d,k=%d,seed=%d)",
			core.ErrIncompatible, f.m, f.k, f.seed, other.m, other.k, other.seed)
	}
	for i, w := range other.bits {
		f.bits[i] |= w
	}
	f.n += other.n
	return nil
}

// SizeBytes returns the in-memory size of the bit array, the figure the
// space experiments report.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// MarshalBinary serializes the filter. Wire version 2 marks filters
// whose bit positions are derived by FastRange reduction; version 1
// was written when positions were reduced by modulo, so its payloads
// address different bits and are not decodable (see UnmarshalBinary).
func (f *Filter) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// AppendBinary appends the serialization to dst (Go 1.24's
// encoding.BinaryAppender), in one sized pass.
func (f *Filter) AppendBinary(dst []byte) ([]byte, error) { return f.encode(dst, nil) }

// StreamBinary writes the envelope AppendBinary appends to s, the bit
// array as the words it is.
func (f *Filter) StreamBinary(s core.Sink) error {
	_, err := f.encode(nil, s)
	return err
}

func (f *Filter) encode(dst []byte, s core.Sink) ([]byte, error) {
	w := core.OpenWriter(dst, s, core.TagBloom, 2, 32+8*len(f.bits))
	w.U64(f.m)
	w.U32(uint32(f.k))
	w.U64(f.seed)
	w.U64(f.n)
	w.U64Slice(f.bits)
	return w.Finish()
}

// bitsHeader reads what the classic and the blocked filter's envelopes
// share after their version — size (m, or blocks), k, seed, n and the
// count of the bit words — and checks that exactly the counted words
// follow.
func bitsHeader(r *core.Reader) (size uint64, k int, seed, n uint64, words int, err error) {
	size = r.U64()
	k = int(r.U32())
	seed = r.U64()
	n = r.U64()
	words = r.Count(8)
	if r.Err() != nil {
		return 0, 0, 0, 0, 0, r.Err()
	}
	if r.Remaining() != 8*words {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: %d bytes after the header for %d bit words", core.ErrCorrupt, r.Remaining(), words)
	}
	return size, k, seed, n, words, nil
}

// bitsWire locates the bit words bitsHeader counted, for a merge of
// envelopes (core.WireCells): size, k and seed must agree, n adds and the
// words OR, which is both filters' Merge.
func bitsWire(r *core.Reader, words int) core.WireCells {
	c := core.WireCells{Sum: r.Offset() - 12, Start: r.Offset() - 4}
	c.Tables[0] = core.WireTable{Parts: 1, Words: words}
	return c
}

// filterHeader is bitsHeader and the classic filter's own rules. k is bounded
// because every Add/Contains does k hash probes: a corrupt multi-billion
// k would turn the first post-decode operation into a minutes-long spin
// (fuzz-found). Real filters use k ≤ ~30. The size is held under what the
// words present can hold before it is rounded up to words, here and in the
// blocked and counting decoders: m+63 wraps for an m near 2^64, and the
// filter that decoded then addressed bits it did not have (fuzz-found).
func filterHeader(r *core.Reader) (f Filter, words int, err error) {
	if f.m, f.k, f.seed, f.n, words, err = bitsHeader(r); err != nil {
		return f, 0, err
	}
	if f.m == 0 || f.k < 1 || f.k > 256 || f.m > 64*uint64(words) || uint64(words) != (f.m+63)/64 {
		return f, 0, fmt.Errorf("%w: inconsistent bloom dimensions", core.ErrCorrupt)
	}
	return f, words, nil
}

// UnmarshalBinary restores a filter serialized by MarshalBinary.
// Version-1 payloads are rejected: they were written when bit positions
// were reduced by modulo rather than FastRange, so their set bits do
// not line up with the positions Contains probes today, and decoding
// one would silently break the no-false-negative guarantee. No in-place
// migration exists (the original items are gone); v1 filters must be
// rebuilt from their source data.
func (f *Filter) UnmarshalBinary(data []byte) error {
	r, version, err := core.NewReaderVersioned(data, core.TagBloom, 2)
	if err != nil {
		return err
	}
	if version < 2 {
		return fmt.Errorf("%w: bloom wire version 1 used modulo bit addressing; decoding it under FastRange addressing would introduce false negatives — rebuild the filter", core.ErrIncompatible)
	}
	fresh, words, err := filterHeader(r)
	if err != nil {
		return err
	}
	fresh.bits = make([]uint64, words)
	core.ReadBlock(r, fresh.bits)
	if err := r.Done(); err != nil {
		return err
	}
	*f = fresh
	return nil
}

// Wire validates a Bloom envelope as UnmarshalBinary does and locates
// its bit words for a merge of envelopes. It declines a version-1
// envelope, whose refusal is UnmarshalBinary's to word.
func Wire(env []byte) (core.WireCells, bool, error) {
	r, version, err := core.NewReaderVersioned(env, core.TagBloom, 2)
	if err != nil || version < 2 {
		return core.WireCells{}, false, err
	}
	_, words, err := filterHeader(r)
	if err != nil {
		return core.WireCells{}, false, err
	}
	return bitsWire(r, words), true, nil
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
