package cardinality

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/core"
	"repro/internal/hashx"
)

// sparseP is the precision used by the sparse representation: hashes
// are bucketed into 2^25 cells, so linear counting stays essentially
// exact far beyond the dense transition point.
const sparseP = 25

// HLLPP is HyperLogLog++ (Heule, Nunkesser, Hall 2013): HyperLogLog
// with (a) a 64-bit hash so the large-range correction disappears,
// (b) a sparse representation at low cardinality that stores
// (index, rank) pairs at precision 25 and estimates with linear
// counting — near-exact until memory forces densification, and
// (c) dense-mode small-range handling. Together these remove the bias
// spike the raw HLL estimator shows between roughly 2m and 5m
// (experiment E8 reproduces the before/after).
//
// Substitution note (DESIGN.md §3): Google's published implementation
// corrects residual dense-mode bias with empirically fitted tables; we
// keep the sparse-until-dense and linear-counting machinery, which is
// what delivers the small-cardinality accuracy the paper highlights,
// and document the table omission rather than shipping opaque fitted
// constants.
type HLLPP struct {
	p      uint8
	seed   uint64
	sparse map[uint32]uint8 // idx25 -> max rank of remaining 39 bits; nil once dense
	dense  *HLL
}

// NewHLLPP creates an HLL++ sketch with dense precision p, 4 ≤ p ≤ 18.
func NewHLLPP(p uint8, seed uint64) *HLLPP {
	if p < 4 || p > 18 {
		panic("cardinality: HLL++ precision must be in [4,18]")
	}
	return &HLLPP{p: p, seed: seed, sparse: make(map[uint32]uint8)}
}

// Add inserts an item.
func (h *HLLPP) Add(item []byte) {
	h1, _ := hashx.Murmur3_128(item, h.seed)
	h.AddHash(h1)
}

// AddUint64 inserts an integer item without allocation.
func (h *HLLPP) AddUint64(v uint64) { h.AddHash(hashx.HashUint64(v, h.seed)) }

// Update implements core.Updater.
func (h *HLLPP) Update(item []byte) { h.Add(item) }

// AddHash folds an already-hashed value into the sketch.
func (h *HLLPP) AddHash(x uint64) {
	if h.dense != nil {
		h.dense.AddHash(x)
		return
	}
	idx := uint32(x >> (64 - sparseP))
	w := x<<sparseP | 1<<(sparseP-1)
	rank := uint8(bits.LeadingZeros64(w)) + 1
	if rank > h.sparse[idx] {
		h.sparse[idx] = rank
	}
	// Densify when the sparse map's memory overtakes the dense array:
	// each entry costs ~8 bytes against 6 bits per dense register.
	if len(h.sparse) > (1<<h.p)*3/4 {
		h.toDense()
	}
}

// toDense converts the sparse representation into dense registers.
func (h *HLLPP) toDense() {
	d := NewHLL(h.p, h.seed)
	shift := int(sparseP - h.p)
	for idx25, r := range h.sparse {
		denseIdx := int(idx25 >> shift)
		low := idx25 & (1<<shift - 1)
		var rank uint8
		if low != 0 {
			// The first 1-bit after position p lies inside the stored
			// index bits.
			rank = uint8(shift-bits.Len32(low)) + 1
		} else {
			rank = uint8(shift) + r
		}
		if rank > d.getRegister(denseIdx) {
			d.setRegister(denseIdx, rank)
		}
	}
	h.dense = d
	h.sparse = nil
}

// IsSparse reports whether the sketch is still in sparse mode.
func (h *HLLPP) IsSparse() bool { return h.dense == nil }

// Estimate returns the cardinality estimate: exact-ish linear counting
// at precision 25 while sparse, the dense HLL estimate after.
func (h *HLLPP) Estimate() float64 {
	if h.dense != nil {
		return h.dense.Estimate()
	}
	m := 1 << sparseP
	return linearCounting(m, m-len(h.sparse))
}

// P returns the dense precision parameter.
func (h *HLLPP) P() uint8 { return h.p }

// SizeBytes returns the current in-memory representation size.
func (h *HLLPP) SizeBytes() int {
	if h.dense != nil {
		return h.dense.SizeBytes()
	}
	return len(h.sparse) * 5 // 4-byte index + 1-byte rank, the packed cost
}

// Merge combines another HLL++ sketch of the same shape.
func (h *HLLPP) Merge(other *HLLPP) error {
	if h.p != other.p || h.seed != other.seed {
		return fmt.Errorf("%w: HLL++ shape mismatch", core.ErrIncompatible)
	}
	if h.dense == nil && other.dense == nil {
		for idx, r := range other.sparse {
			if r > h.sparse[idx] {
				h.sparse[idx] = r
			}
		}
		if len(h.sparse) > (1<<h.p)*3/4 {
			h.toDense()
		}
		return nil
	}
	if h.dense == nil {
		h.toDense()
	}
	if other.dense == nil {
		o := &HLLPP{p: other.p, seed: other.seed, sparse: make(map[uint32]uint8, len(other.sparse))}
		for k, v := range other.sparse {
			o.sparse[k] = v
		}
		o.toDense()
		return h.dense.Merge(o.dense)
	}
	return h.dense.Merge(other.dense)
}

// MarshalBinary serializes the sketch in either representation.
func (h *HLLPP) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagHLLPP, 1)
	w.U8(h.p)
	w.U64(h.seed)
	if h.dense != nil {
		w.U8(1)
		d, err := h.dense.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.BytesField(d)
		return w.Bytes(), nil
	}
	w.U8(0)
	// Serialize sparse entries sorted for determinism.
	keys := make([]uint32, 0, len(h.sparse))
	for k := range h.sparse {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	entries := make([]uint64, len(keys))
	for i, k := range keys {
		entries[i] = uint64(k)<<8 | uint64(h.sparse[k])
	}
	w.U64Slice(entries)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (h *HLLPP) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagHLLPP, 1)
	if err != nil {
		return err
	}
	p := r.U8()
	seed := r.U64()
	mode := r.U8()
	if r.Err() != nil {
		return r.Err()
	}
	if p < 4 || p > 18 {
		return fmt.Errorf("%w: HLL++ precision %d", core.ErrCorrupt, p)
	}
	if mode == 1 {
		payload := r.BytesField()
		if err := r.Done(); err != nil {
			return err
		}
		var d HLL
		if err := d.UnmarshalBinary(payload); err != nil {
			return err
		}
		h.p, h.seed, h.dense, h.sparse = p, seed, &d, nil
		return nil
	}
	entries := r.U64Slice()
	if err := r.Done(); err != nil {
		return err
	}
	sparse := make(map[uint32]uint8, len(entries))
	for _, e := range entries {
		idx := uint32(e >> 8)
		if idx >= 1<<sparseP {
			return fmt.Errorf("%w: HLL++ sparse index %d", core.ErrCorrupt, idx)
		}
		sparse[idx] = uint8(e)
	}
	h.p, h.seed, h.dense, h.sparse = p, seed, nil, sparse
	return nil
}
