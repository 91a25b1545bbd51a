package concurrent

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashx"
)

// AtomicBlockedBloom is a blocked Bloom filter whose bit words are set
// with atomic CAS-OR loops — lock-free inserts and queries. sketchd
// serves the plain filter behind the registry's lock instead, which
// measured at parity (DESIGN.md §5.1); this is the per-cell baseline. It
// addresses exactly the same block and bits as bloom.BlockedFilter with
// equal shape and seed — the three walks below read the probe rule from
// bloom's exported constants, not their own copy — which is what makes
// Merge and Snapshot exchanges with the plain filter exact.
//
// Queries under concurrent writes are safe in the Bloom sense: a
// Contains that races an Add may miss bits still being set, but any
// item whose Add happened-before the query is always found (no false
// negatives for completed inserts).
type AtomicBlockedBloom struct {
	bits   []atomic.Uint64 // blocks × 8 words
	blocks uint64
	k      int
	seed   uint64
	n      atomic.Uint64
}

// NewAtomicBlockedBloom creates an atomic blocked filter with at least
// m > 0 bits (rounded up to whole 512-bit blocks) and k probes per item,
// sized and validated by bloom.BlockedShape as bloom.NewBlocked is.
func NewAtomicBlockedBloom(m uint64, k int, seed uint64) *AtomicBlockedBloom {
	m, k = bloom.BlockedShape(m, k, 0, 0)
	return &AtomicBlockedBloom{
		bits:   make([]atomic.Uint64, m/bloom.BlockBits*bloom.BlockWords),
		blocks: m / bloom.BlockBits,
		k:      k,
		seed:   seed,
	}
}

// orWord atomically ORs mask into word i. A CAS loop rather than
// atomic.Uint64.Or: it returns after one load when the bits are already
// set — the common case in a filling filter — where Or would take the
// cache line exclusive on every probe.
func (f *AtomicBlockedBloom) orWord(i uint64, mask uint64) {
	w := &f.bits[i]
	for {
		old := w.Load()
		if old&mask == mask {
			return
		}
		if w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// AddHash inserts a pre-hashed item, touching one cache-line block.
// The k bit positions match bloom.BlockedFilter.AddHash exactly.
func (f *AtomicBlockedBloom) AddHash(h1, h2 uint64) {
	base := hashx.FastRange(h1, f.blocks) * bloom.BlockWords
	k, w := f.k, h2
	for {
		steps := k
		if steps > bloom.ProbeBitsPerWord {
			steps = bloom.ProbeBitsPerWord
		}
		for j := 0; j < steps; j++ {
			pos := w & (bloom.BlockBits - 1)
			f.orWord(base+pos>>6, 1<<(pos&63))
			w >>= bloom.ProbeShift
		}
		if k -= steps; k == 0 {
			break
		}
		h2 = bloom.NextProbeWord(h2)
		w = h2
	}
	f.n.Add(1)
}

// AddBatch inserts many items a fixed chunk at a time: the chunk is
// fully hashed first (outside any synchronization — the CAS words are
// the only shared state), then folded in via AddHashBatch. State is
// identical to per-item Add.
func (f *AtomicBlockedBloom) AddBatch(items [][]byte) {
	var h1s, h2s [atomicIngestChunk]uint64
	for len(items) > 0 {
		c := len(items)
		if c > atomicIngestChunk {
			c = atomicIngestChunk
		}
		for i, item := range items[:c] {
			h1s[i], h2s[i] = hashx.Murmur3_128(item, f.seed)
		}
		f.AddHashBatch(h1s[:c], h2s[:c])
		items = items[c:]
	}
}

// AddHashBatch folds many pre-hashed items in, a fixed chunk at a time,
// in the three passes of bloom.BlockedFilter.AddHashBatch (which says
// why): locate the block bases, touch the first word of each block so
// the chunk's cache misses overlap, then run the CAS-OR walk over lines
// already on their way. The touch is a plain read of shared words: it
// takes nothing exclusive, writes nothing two writers could contend on,
// and decides nothing — orWord loads each word again before it swaps.
// Both slices must have equal length.
func (f *AtomicBlockedBloom) AddHashBatch(h1s, h2s []uint64) {
	if len(h1s) != len(h2s) {
		panic("concurrent: AddHashBatch slice lengths differ")
	}
	var bases [atomicIngestChunk]uint64
	for start := 0; start < len(h1s); start += atomicIngestChunk {
		end := start + atomicIngestChunk
		if end > len(h1s) {
			end = len(h1s)
		}
		c1, c2 := h1s[start:end], h2s[start:end]
		for i, h1 := range c1 {
			bases[i] = hashx.FastRange(h1, f.blocks) * bloom.BlockWords
		}
		var touched uint64
		for _, base := range bases[:len(c1)] {
			touched |= f.bits[base].Load()
		}
		bloom.Touched(touched)
		for i, h2 := range c2 {
			base := bases[i]
			k, w := f.k, h2
			for {
				steps := k
				if steps > bloom.ProbeBitsPerWord {
					steps = bloom.ProbeBitsPerWord
				}
				for j := 0; j < steps; j++ {
					pos := w & (bloom.BlockBits - 1)
					f.orWord(base+pos>>6, 1<<(pos&63))
					w >>= bloom.ProbeShift
				}
				if k -= steps; k == 0 {
					break
				}
				h2 = bloom.NextProbeWord(h2)
				w = h2
			}
		}
		f.n.Add(uint64(len(c1)))
	}
}

// ContainsHash answers a membership query from a pre-computed hash.
func (f *AtomicBlockedBloom) ContainsHash(h1, h2 uint64) bool {
	base := hashx.FastRange(h1, f.blocks) * bloom.BlockWords
	k, w := f.k, h2
	for {
		steps := k
		if steps > bloom.ProbeBitsPerWord {
			steps = bloom.ProbeBitsPerWord
		}
		for j := 0; j < steps; j++ {
			pos := w & (bloom.BlockBits - 1)
			if f.bits[base+pos>>6].Load()&(1<<(pos&63)) == 0 {
				return false
			}
			w >>= bloom.ProbeShift
		}
		if k -= steps; k == 0 {
			return true
		}
		h2 = bloom.NextProbeWord(h2)
		w = h2
	}
}

// Seed returns the hash seed.
func (f *AtomicBlockedBloom) Seed() uint64 { return f.seed }

// SizeBytes returns the bit-array storage size.
func (f *AtomicBlockedBloom) SizeBytes() int { return len(f.bits) * 8 }

// Merge ORs a hash-compatible plain blocked filter in atomically.
// Concurrent Adds interleave safely: each word OR is atomic, so
// completed inserts on either side remain findable.
func (f *AtomicBlockedBloom) Merge(other *bloom.BlockedFilter) error {
	if other.Blocks() != f.blocks || other.K() != f.k || other.Seed() != f.seed {
		return fmt.Errorf("%w: atomic blocked bloom (blocks=%d,k=%d,seed=%d) vs (blocks=%d,k=%d,seed=%d)",
			core.ErrIncompatible, f.blocks, f.k, f.seed, other.Blocks(), other.K(), other.Seed())
	}
	for i, w := range other.Words() {
		if w != 0 {
			f.orWord(uint64(i), w)
		}
	}
	f.n.Add(other.N())
	return nil
}

// MarshalBinary serializes a snapshot in the standard blocked-Bloom
// envelope, so any BlockedFilter can absorb it.
func (f *AtomicBlockedBloom) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst. The words are
// loaded straight into the envelope — the same per-word snapshot as
// Snapshot's, without a second bit array in between.
func (f *AtomicBlockedBloom) AppendBinary(dst []byte) ([]byte, error) {
	return bloom.EncodeBlocked(dst, nil, f.blocks, f.k, f.seed, f.n.Load(), f.bits)
}
