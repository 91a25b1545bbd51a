package cardinality

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/hashx"
)

// KMV is the k-minimum-values (bottom-k) distinct counter: keep the k
// smallest hash values seen; if the k-th smallest is v (as a fraction
// of the hash range), the cardinality estimate is (k−1)/v. KMV is the
// practical face of the theory line that culminated in the optimal
// distinct-elements algorithm (Kane–Nelson–Woodruff, PODS 2010 best
// paper), and the basis of theta sketches: because it retains actual
// hash values, it supports set intersection and difference estimates,
// not just union.
type KMV struct {
	k    int
	seed uint64
	vals []uint64 // sorted ascending, at most k values, distinct
}

// NewKMV creates a bottom-k sketch. Relative standard error ≈ 1/√(k−2).
func NewKMV(k int, seed uint64) *KMV {
	if k < 3 {
		panic("cardinality: KMV requires k >= 3")
	}
	return &KMV{k: k, seed: seed, vals: make([]uint64, 0, k)}
}

// Add inserts an item.
func (s *KMV) Add(item []byte) { s.addHash(hashx.XXHash64(item, s.seed)) }

// AddUint64 inserts an integer item without allocation.
func (s *KMV) AddUint64(v uint64) { s.addHash(hashx.HashUint64(v, s.seed)) }

// Update implements core.Updater.
func (s *KMV) Update(item []byte) { s.Add(item) }

func (s *KMV) addHash(h uint64) {
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= h })
	if i < len(s.vals) && s.vals[i] == h {
		return // duplicate item (or hash collision): bottom-k keeps distinct values
	}
	if len(s.vals) == s.k {
		if i == s.k {
			return // larger than current k-th minimum
		}
		copy(s.vals[i+1:], s.vals[i:s.k-1])
		s.vals[i] = h
		return
	}
	s.vals = append(s.vals, 0)
	copy(s.vals[i+1:], s.vals[i:])
	s.vals[i] = h
}

// Estimate returns the cardinality estimate (k−1)/v_k, or the exact
// retained count while fewer than k values have been seen.
func (s *KMV) Estimate() float64 {
	if len(s.vals) < s.k {
		return float64(len(s.vals))
	}
	vk := float64(s.vals[s.k-1]) / math.MaxUint64
	return float64(s.k-1) / vk
}

// K returns the sketch size parameter.
func (s *KMV) K() int { return s.k }

// StandardError returns the theoretical relative standard error.
func (s *KMV) StandardError() float64 { return 1 / math.Sqrt(float64(s.k-2)) }

// SizeBytes returns the retained-values storage size.
func (s *KMV) SizeBytes() int { return len(s.vals) * 8 }

// Merge combines another KMV sketch: union the value sets and keep the
// k smallest. The result is exactly the sketch of the union stream.
func (s *KMV) Merge(other *KMV) error {
	if s.k != other.k || s.seed != other.seed {
		return fmt.Errorf("%w: KMV shape mismatch", core.ErrIncompatible)
	}
	for _, v := range other.vals {
		s.addHash(v)
	}
	return nil
}

// MarshalBinary serializes the sketch.
func (s *KMV) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagKMV, 1)
	w.U32(uint32(s.k))
	w.U64(s.seed)
	w.U64Slice(s.vals)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *KMV) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagKMV, 1)
	if err != nil {
		return err
	}
	k := int(r.U32())
	seed := r.U64()
	vals := r.U64Slice()
	if err := r.Done(); err != nil {
		return err
	}
	if k < 3 || len(vals) > k {
		return fmt.Errorf("%w: KMV k=%d with %d values", core.ErrCorrupt, k, len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			return fmt.Errorf("%w: KMV values not strictly sorted", core.ErrCorrupt)
		}
	}
	s.k, s.seed, s.vals = k, seed, vals
	return nil
}
