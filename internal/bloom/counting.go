package bloom

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hashx"
)

// CountingFilter is a counting Bloom filter: each position holds a
// small counter instead of one bit, so items can also be removed. This
// is the structure network systems (the paper's §3 ISP era) used for
// flow tables where entries expire. Counters are 16-bit and saturate
// rather than overflow; a saturated counter is never decremented, which
// preserves the no-false-negative guarantee at the cost of the counter
// sticking at the ceiling.
type CountingFilter struct {
	counts []uint16
	m      uint64
	k      int
	seed   uint64
	n      uint64
}

const countingMax = ^uint16(0)

// NewCounting creates a counting filter with m counters and k hashes.
func NewCounting(m uint64, k int, seed uint64) *CountingFilter {
	if m == 0 {
		panic("bloom: m must be positive")
	}
	if k < 1 {
		panic("bloom: k must be >= 1")
	}
	return &CountingFilter{counts: make([]uint16, m), m: m, k: k, seed: seed}
}

// Add inserts an item, incrementing its k counters. Positions derive
// from one 128-bit hash pass exactly as in Filter.AddHash.
func (f *CountingFilter) Add(item []byte) {
	h1, h2 := hashx.Murmur3_128(item, f.seed)
	h2 |= 1
	for i := 0; i < f.k; i++ {
		pos := hashx.FastRange(h1, f.m)
		if f.counts[pos] < countingMax {
			f.counts[pos]++
		}
		h1 += h2
	}
	f.n++
}

// Remove deletes one occurrence of an item. Removing an item that was
// never added corrupts the filter (standard counting-Bloom caveat), so
// callers must pair removals with prior insertions.
func (f *CountingFilter) Remove(item []byte) {
	h1, h2 := hashx.Murmur3_128(item, f.seed)
	h2 |= 1
	for i := 0; i < f.k; i++ {
		pos := hashx.FastRange(h1, f.m)
		if f.counts[pos] > 0 && f.counts[pos] < countingMax {
			f.counts[pos]--
		}
		h1 += h2
	}
	if f.n > 0 {
		f.n--
	}
}

// Contains reports whether the item may be present.
func (f *CountingFilter) Contains(item []byte) bool {
	h1, h2 := hashx.Murmur3_128(item, f.seed)
	h2 |= 1
	for i := 0; i < f.k; i++ {
		if f.counts[hashx.FastRange(h1, f.m)] == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

// Update implements core.Updater.
func (f *CountingFilter) Update(item []byte) { f.Add(item) }

// N returns the net number of insertions.
func (f *CountingFilter) N() uint64 { return f.n }

// SizeBytes returns the memory footprint of the counter array.
func (f *CountingFilter) SizeBytes() int { return len(f.counts) * 2 }

// Merge adds another counting filter's counters into this one
// (saturating), representing the multiset union.
func (f *CountingFilter) Merge(other *CountingFilter) error {
	if f.m != other.m || f.k != other.k || f.seed != other.seed {
		return fmt.Errorf("%w: counting bloom shape mismatch", core.ErrIncompatible)
	}
	for i, c := range other.counts {
		s := uint32(f.counts[i]) + uint32(c)
		if s > uint32(countingMax) {
			s = uint32(countingMax)
		}
		f.counts[i] = uint16(s)
	}
	f.n += other.n
	return nil
}

// MarshalBinary serializes the filter. Wire version 2 marks filters
// whose counter positions are derived by FastRange reduction; version 1
// (modulo positions) is not decodable, as with Filter.
func (f *CountingFilter) MarshalBinary() ([]byte, error) {
	packed := make([]uint64, (len(f.counts)+3)/4)
	for i, c := range f.counts {
		packed[i/4] |= uint64(c) << ((i % 4) * 16)
	}
	w := core.AppendWriter(nil, core.TagCountingBloom, 2, 32+8*len(packed))
	w.U64(f.m)
	w.U32(uint32(f.k))
	w.U64(f.seed)
	w.U64(f.n)
	w.U64Slice(packed)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a filter serialized by MarshalBinary.
// Version-1 payloads (modulo counter addressing) are rejected for the
// same reason as Filter's: their counters sit at positions today's
// probes never read, so membership and counts would silently be wrong.
func (f *CountingFilter) UnmarshalBinary(data []byte) error {
	r, version, err := core.NewReaderVersioned(data, core.TagCountingBloom, 2)
	if err != nil {
		return err
	}
	if version < 2 {
		return fmt.Errorf("%w: counting bloom wire version 1 used modulo addressing; rebuild the filter", core.ErrIncompatible)
	}
	m := r.U64()
	k := int(r.U32())
	seed := r.U64()
	n := r.U64()
	packed := r.U64Slice()
	if err := r.Done(); err != nil {
		return err
	}
	if m == 0 || k < 1 || k > 256 || m > 4*uint64(len(packed)) || uint64(len(packed)) != (m+3)/4 {
		return fmt.Errorf("%w: inconsistent counting bloom dimensions", core.ErrCorrupt)
	}
	counts := make([]uint16, m)
	for i := range counts {
		counts[i] = uint16(packed[i/4] >> ((i % 4) * 16))
	}
	f.m, f.k, f.seed, f.n, f.counts = m, k, seed, n, counts
	return nil
}
