package bloom

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashx"
)

// BlockWords is the number of 64-bit words per blocked-filter block:
// 8 words = 512 bits = one cache line on every mainstream CPU. Putze,
// Sanders & Singler ("Cache-, Hash- and Space-Efficient Bloom
// Filters", 2007) and Friedman's sketch evaluation both identify this
// blocking as the dominant software optimization for Bloom filters:
// an Add or Contains touches exactly one cache line instead of k.
const BlockWords = 8

// BlockBits is the bit capacity of one block (512).
const BlockBits = BlockWords * 64

// BlockedFilter is a cache-line-blocked Bloom filter: the first hash
// stream picks one 512-bit block, the second derives all k bit
// positions inside that block. Updates and queries cost one memory
// access (plus ALU work) regardless of k, which is what makes the
// blocked variant several times faster than the classic filter once
// the bit array outgrows the L2 cache (experiment E28).
//
// The price is a slightly higher false-positive rate at equal bits per
// item: block occupancies fluctuate (some blocks receive more items
// than m/512 would suggest), and overloaded blocks dominate the FPR.
// TheoreticalBlockedFPR computes the exact Poisson-mixture bound the
// property tests check measured rates against.
//
// Like the classic filter there are no false negatives, and filters
// with equal shape and seed merge by bitwise OR.
type BlockedFilter struct {
	bits   []uint64
	blocks uint64 // number of 512-bit blocks; m = blocks * 512
	k      int
	seed   uint64
	n      uint64
}

// NewBlocked creates a blocked filter with at least m bits (rounded up
// to a whole number of 512-bit blocks) and k bit probes per item.
func NewBlocked(m uint64, k int, seed uint64) *BlockedFilter {
	if m == 0 {
		panic("bloom: m must be positive")
	}
	m, k = BlockedShape(m, k, 0, 0)
	return &BlockedFilter{
		bits:   make([]uint64, m/BlockBits*BlockWords),
		blocks: m / BlockBits,
		k:      k,
		seed:   seed,
	}
}

// maxBlockedK bounds the probes per block: past 64 of 512 bits per
// item the filter is mis-sized anyway, and the bound keeps decode-time
// validation meaningful.
const maxBlockedK = 64

// NewBlockedWithEstimates sizes a blocked filter for n expected items
// at target false-positive rate p using the same optimal-m/k formulas
// as the classic filter. The realized FPR lands slightly above p (the
// blocking penalty); callers needing the exact classic rate should
// oversize m by ~15-30% or use New.
func NewBlockedWithEstimates(n uint64, p float64, seed uint64) *BlockedFilter {
	m, k := BlockedShape(0, 0, n, p)
	return NewBlocked(m, k, seed)
}

// BlockedShape is the one sizing rule of a blocked filter, which
// NewBlocked, NewBlockedWithEstimates and concurrent.AtomicBlockedBloom
// share: with m set, at least m bits and k probes; with m zero, n
// expected items (zero counts as one) at target false-positive rate p by
// the classic optimal-m/k formulas. It returns m rounded up to whole
// 512-bit blocks and k, allocates nothing, and panics on a k outside
// [1,64] or a p outside (0,1).
func BlockedShape(m uint64, k int, n uint64, p float64) (uint64, int) {
	if m == 0 {
		if n == 0 {
			n = 1
		}
		if !(p > 0 && p < 1) {
			panic("bloom: false positive rate must be in (0,1)")
		}
		m = max(1, uint64(math.Ceil(-float64(n)*math.Log(p)/(math.Ln2*math.Ln2))))
		k = min(max(1, int(math.Round(float64(m)/float64(n)*math.Ln2))), maxBlockedK)
	}
	if k < 1 || k > maxBlockedK {
		panic("bloom: blocked k must be in [1,64]")
	}
	return (m + BlockBits - 1) / BlockBits * BlockBits, k
}

// blockBase returns the first word index of the block h1 selects.
func (f *BlockedFilter) blockBase(h1 uint64) uint64 {
	return hashx.FastRange(h1, f.blocks) * BlockWords
}

// Probe positions inside a block are consumed directly from h2, nine
// bits per probe: probe j reads bits [9j, 9j+9) of the current probe
// word, and after seven probes (63 bits) the word is remixed so any k
// up to 64 stays uniform. Direct extraction keeps the k probes
// independent in the out-of-order window — a stride walk would chain
// each position on the previous one — and sampling with replacement is
// exactly the model TheoreticalBlockedFPR prices. The rule is exported
// because concurrent.AtomicBlockedBloom walks the same bits over atomic
// words: it is stated here and nowhere else.
const (
	ProbeBitsPerWord = 7
	ProbeShift       = 9
)

// NextProbeWord remixes the probe stream once the current word's 63
// usable bits are consumed.
func NextProbeWord(w uint64) uint64 { return hashx.Mix64(w) }

// Touched is where a batch kernel hands the OR of the words its touch
// pass loaded, so that the compiler keeps the loads; it does nothing.
// The value is the caller's local and the call is not inlined. It must
// never become a package variable: two writers of one atomic filter
// would bounce that variable's cache line on every chunk, and two
// unrelated plain filters on two goroutines would race on it.
//
//go:noinline
func Touched(uint64) {}

// Add inserts an item: one 128-bit hash pass, one cache-line block.
func (f *BlockedFilter) Add(item []byte) {
	h1, h2 := hashx.Murmur3_128(item, f.seed)
	f.AddHash(h1, h2)
}

// AddString inserts a string item without copying or allocating.
func (f *BlockedFilter) AddString(item string) {
	h1, h2 := hashx.Murmur3_128String(item, f.seed)
	f.AddHash(h1, h2)
}

// AddHash inserts an item from its pre-computed 128-bit hash; h1
// selects the block, h2 the bits within it. Add(item) is exactly
// equivalent to AddHash(hashx.Murmur3_128(item, seed)).
func (f *BlockedFilter) AddHash(h1, h2 uint64) {
	base := f.blockBase(h1)
	block := f.bits[base : base+BlockWords : base+BlockWords]
	k, w := f.k, h2
	for {
		steps := k
		if steps > ProbeBitsPerWord {
			steps = ProbeBitsPerWord
		}
		for j := 0; j < steps; j++ {
			pos := w & (BlockBits - 1)
			block[pos>>6] |= 1 << (pos & 63)
			w >>= ProbeShift
		}
		if k -= steps; k == 0 {
			break
		}
		h2 = NextProbeWord(h2)
		w = h2
	}
	f.n++
}

// AddBatch inserts many items a fixed chunk at a time: hash the chunk,
// then AddHashBatch it; the final state is identical to calling Add on
// each item in order.
func (f *BlockedFilter) AddBatch(items [][]byte) {
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

// AddHashBatch folds many pre-hashed items in, in three passes over each
// fixed chunk: locate (block bases, pure ALU), touch (load the first
// word of every block), apply (the probe walk). Locating first takes the
// address math off the memory stream, but does not by itself make the
// chunk's cache misses overlap: the walk spends ~60 dependent
// instructions on each line, so the out-of-order window holds three or
// four items, and on a filter past the cache that is close to one full
// miss per item. The touch pass overlaps them — 256 independent loads of
// three instructions each, as many in flight as the core has fill
// buffers — and the walk runs over lines already on their way. It pays
// because apply is long per line. Count-Min's apply is one add per line:
// that loop already is its own touch, and a touch pass in front of it
// only costs (DESIGN.md §7.3, "Where a touch belongs"). State is
// identical to calling AddHash per pair. Both slices must have equal
// length.
func (f *BlockedFilter) AddHashBatch(h1s, h2s []uint64) {
	if len(h1s) != len(h2s) {
		panic("bloom: AddHashBatch slice lengths differ")
	}
	var bases [ingestChunk]uint64
	for start := 0; start < len(h1s); start += ingestChunk {
		end := start + ingestChunk
		if end > len(h1s) {
			end = len(h1s)
		}
		c1, c2 := h1s[start:end], h2s[start:end]
		// Locate: pure ALU — block bases for the whole chunk.
		for i, h1 := range c1 {
			bases[i] = f.blockBase(h1)
		}
		// Touch: one word per block, nothing depends on the value.
		var touched uint64
		for _, base := range bases[:len(c1)] {
			touched |= f.bits[base]
		}
		Touched(touched)
		// Apply: one cache line per item, already requested.
		for i, h2 := range c2 {
			base := bases[i]
			block := f.bits[base : base+BlockWords : base+BlockWords]
			k, w := f.k, h2
			for {
				steps := k
				if steps > ProbeBitsPerWord {
					steps = ProbeBitsPerWord
				}
				for j := 0; j < steps; j++ {
					pos := w & (BlockBits - 1)
					block[pos>>6] |= 1 << (pos & 63)
					w >>= ProbeShift
				}
				if k -= steps; k == 0 {
					break
				}
				h2 = NextProbeWord(h2)
				w = h2
			}
		}
		f.n += uint64(len(c1))
	}
}

// Contains reports whether the item may be in the set. False positives
// occur at the blocked rate; false negatives never occur.
func (f *BlockedFilter) Contains(item []byte) bool {
	h1, h2 := hashx.Murmur3_128(item, f.seed)
	return f.ContainsHash(h1, h2)
}

// ContainsString reports membership for a string item without copying
// or allocating.
func (f *BlockedFilter) ContainsString(item string) bool {
	h1, h2 := hashx.Murmur3_128String(item, f.seed)
	return f.ContainsHash(h1, h2)
}

// ContainsHash answers a membership query from a pre-computed 128-bit
// hash, probing the same block and bits AddHash sets.
func (f *BlockedFilter) ContainsHash(h1, h2 uint64) bool {
	base := f.blockBase(h1)
	block := f.bits[base : base+BlockWords : base+BlockWords]
	k, w := f.k, h2
	for {
		steps := k
		if steps > ProbeBitsPerWord {
			steps = ProbeBitsPerWord
		}
		for j := 0; j < steps; j++ {
			pos := w & (BlockBits - 1)
			if block[pos>>6]&(1<<(pos&63)) == 0 {
				return false
			}
			w >>= ProbeShift
		}
		if k -= steps; k == 0 {
			return true
		}
		h2 = NextProbeWord(h2)
		w = h2
	}
}

// AppendProbes appends the k bits Contains probes for item, in probe
// order, as 0/1 cells: Contains is "every cell is 1", and over filters
// that share a shape and seed, "every cell of their cell-wise sum is
// nonzero" is Contains of their union.
func (f *BlockedFilter) AppendProbes(dst []uint64, item []byte) []uint64 {
	h1, h2 := hashx.Murmur3_128(item, f.seed)
	base := f.blockBase(h1)
	block := f.bits[base : base+BlockWords : base+BlockWords]
	w := h2
	for j := 0; j < f.k; j++ {
		if j > 0 && j%ProbeBitsPerWord == 0 {
			h2 = NextProbeWord(h2)
			w = h2
		}
		pos := w & (BlockBits - 1)
		dst = append(dst, block[pos>>6]>>(pos&63)&1)
		w >>= ProbeShift
	}
	return dst
}

// Update implements the core.Updater streaming interface.
func (f *BlockedFilter) Update(item []byte) { f.Add(item) }

// M returns the number of bits (always a multiple of 512).
func (f *BlockedFilter) M() uint64 { return f.blocks * BlockBits }

// Blocks returns the number of 512-bit blocks.
func (f *BlockedFilter) Blocks() uint64 { return f.blocks }

// K returns the number of bit probes per item.
func (f *BlockedFilter) K() int { return f.k }

// N returns the number of insertions performed (including duplicates).
func (f *BlockedFilter) N() uint64 { return f.n }

// Seed returns the hash seed.
func (f *BlockedFilter) Seed() uint64 { return f.seed }

// FillRatio returns the fraction of set bits.
func (f *BlockedFilter) FillRatio() float64 {
	var ones int
	for _, w := range f.bits {
		ones += popcount(w)
	}
	return float64(ones) / float64(f.M())
}

// EstimatedFPR predicts the current false positive rate from the fill
// ratio, fill^k. For the blocked filter this is a floor: block-load
// variance pushes the realized rate somewhat above it (see
// TheoreticalBlockedFPR for the exact mixture).
func (f *BlockedFilter) EstimatedFPR() float64 {
	return math.Pow(f.FillRatio(), float64(f.k))
}

// TheoreticalBlockedFPR returns the blocked filter's expected false
// positive rate after n distinct insertions into blocks of 512 bits:
// the number of items landing in a query's block is Poisson(λ) with
// λ = 512·n/m, and a block holding i items behaves as a classic filter
// with 512 bits and i insertions, so
//
//	FPR = Σ_i Pois_λ(i) · (1 − e^{−k·i/512})^k.
//
// This is the bound the E28 property test checks measured rates
// against; it always dominates the classic TheoreticalFPR(m, k, n).
func TheoreticalBlockedFPR(m uint64, k int, n uint64) float64 {
	blocks := (m + BlockBits - 1) / BlockBits
	lambda := float64(n) / float64(blocks)
	// Walk the Poisson pmf iteratively until the tail is negligible.
	p := math.Exp(-lambda) // P[i=0]
	sum := 0.0
	cum := 0.0
	for i := 0; cum < 1-1e-12 && i < 64*int(lambda+8); i++ {
		if i > 0 {
			p *= lambda / float64(i)
		}
		cum += p
		sum += p * math.Pow(1-math.Exp(-float64(k)*float64(i)/BlockBits), float64(k))
	}
	return sum
}

// Merge ORs another blocked filter into this one; the result
// represents the union of both sets. Shapes and seeds must match.
func (f *BlockedFilter) Merge(other *BlockedFilter) error {
	if f.blocks != other.blocks || f.k != other.k || f.seed != other.seed {
		return fmt.Errorf("%w: blocked bloom shapes (blocks=%d,k=%d,seed=%d) vs (blocks=%d,k=%d,seed=%d)",
			core.ErrIncompatible, f.blocks, f.k, f.seed, other.blocks, other.k, other.seed)
	}
	for i, w := range other.bits {
		f.bits[i] |= w
	}
	f.n += other.n
	return nil
}

// Clone returns a deep copy.
func (f *BlockedFilter) Clone() *BlockedFilter {
	c := *f
	c.bits = append([]uint64(nil), f.bits...)
	return &c
}

// SizeBytes returns the in-memory size of the bit array.
func (f *BlockedFilter) SizeBytes() int { return len(f.bits) * 8 }

// Words exposes the raw bit words (read-only) so hash-compatible
// external representations — notably concurrent.AtomicBlockedBloom —
// can exchange state with this filter.
func (f *BlockedFilter) Words() []uint64 { return f.bits }

// NewBlockedFromWords reconstitutes a filter from raw words produced
// by a hash-compatible peer (same blocks, k and seed imply identical
// addressing). words must hold blocks*8 values and is copied.
func NewBlockedFromWords(blocks uint64, k int, seed uint64, words []uint64, n uint64) (*BlockedFilter, error) {
	if blocks == 0 || k < 1 || k > maxBlockedK || uint64(len(words)) != blocks*BlockWords {
		return nil, fmt.Errorf("%w: %d words for a %d-block filter",
			core.ErrIncompatible, len(words), blocks)
	}
	f := NewBlocked(blocks*BlockBits, k, seed)
	copy(f.bits, words)
	f.n = n
	return f, nil
}

// MarshalBinary serializes the filter under its own wire tag (the
// blocked layout addresses different bits than the classic filter, so
// the formats must never be confused). Version 1.
func (f *BlockedFilter) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// AppendBinary appends the serialization to dst (Go 1.24's
// encoding.BinaryAppender), in one sized pass.
func (f *BlockedFilter) AppendBinary(dst []byte) ([]byte, error) {
	return EncodeBlocked(dst, nil, f.blocks, f.k, f.seed, f.n, f.bits)
}

// StreamBinary writes the envelope AppendBinary appends to s, the bit
// words as they are.
func (f *BlockedFilter) StreamBinary(s core.Sink) error {
	_, err := EncodeBlocked(nil, s, f.blocks, f.k, f.seed, f.n, f.bits)
	return err
}

// EncodeBlocked writes the blocked-Bloom envelope of a filter's words:
// to s when s is set, else at the end of dst. BlockedFilter holds them
// plain; concurrent.AtomicBlockedBloom holds atomics and writes the
// same envelope from them without copying the words first.
func EncodeBlocked[T uint64 | atomic.Uint64](dst []byte, s core.Sink, blocks uint64, k int, seed, n uint64, words []T) ([]byte, error) {
	w := core.OpenWriter(dst, s, core.TagBlockedBloom, 1, 32+8*len(words))
	w.U64(blocks)
	w.U32(uint32(k))
	w.U64(seed)
	w.U64(n)
	core.WriteSlice(w, words)
	return w.Finish()
}

// blockedHeader reads a blocked-Bloom envelope up to its bit words and
// validates it. k is bounded for the same fuzz-found reason as the
// classic filter: a corrupt k must not turn the first post-decode probe
// loop into a spin.
func blockedHeader(data []byte) (r *core.Reader, f BlockedFilter, words int, err error) {
	if r, _, err = core.NewReaderVersioned(data, core.TagBlockedBloom, 1); err != nil {
		return nil, f, 0, err
	}
	if f.blocks, f.k, f.seed, f.n, words, err = bitsHeader(r); err != nil {
		return nil, f, 0, err
	}
	if f.blocks == 0 || f.k < 1 || f.k > maxBlockedK || f.blocks > uint64(words) || uint64(words) != f.blocks*BlockWords {
		return nil, f, 0, fmt.Errorf("%w: inconsistent blocked bloom dimensions", core.ErrCorrupt)
	}
	return r, f, words, nil
}

// UnmarshalBinary restores a filter serialized by MarshalBinary.
func (f *BlockedFilter) UnmarshalBinary(data []byte) error {
	r, fresh, words, err := blockedHeader(data)
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

// BlockedWire validates a blocked-Bloom envelope as UnmarshalBinary
// does and locates its bit words for a merge of envelopes.
func BlockedWire(env []byte) (core.WireCells, bool, error) {
	r, _, words, err := blockedHeader(env)
	if err != nil {
		return core.WireCells{}, false, err
	}
	return bitsWire(r, words), true, nil
}
