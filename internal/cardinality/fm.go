// Package cardinality implements the distinct-counting (F0) sketch
// lineage the paper traces through three decades: Flajolet–Martin
// probabilistic counting (1983), LogLog (Durand–Flajolet 2003),
// HyperLogLog (Flajolet et al. 2007), the HLL++ engineering refinements
// from Google (Heule et al. 2013), and the KMV bottom-k estimator that
// underlies theta-sketch style set operations.
//
// All sketches in this package are mergeable in the PODS 2012 sense:
// merging sketches of two streams yields exactly the sketch of the
// concatenated stream, so distributed aggregation loses no accuracy
// (experiment E7). Experiment E2 reproduces the space/accuracy ladder
// FM → LogLog → HLL; E8 reproduces the HLL++ small-cardinality fix.
package cardinality

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/hashx"
)

// FM is the Flajolet–Martin PCSA (probabilistic counting with
// stochastic averaging) sketch: m bitmaps, each recording which
// trailing-zero ranks have been observed in its substream. The estimate
// is (m/φ)·2^(mean R) with φ ≈ 0.77351. Standard error ≈ 0.78/√m.
type FM struct {
	bitmaps []uint64 // one 64-bit bitmap per substream
	seed    uint64
}

// fmPhi is the Flajolet–Martin correction constant.
const fmPhi = 0.77351

// NewFM creates a PCSA sketch with m substreams; m must be a power of
// two between 2 and 2^16.
func NewFM(m int, seed uint64) *FM {
	if m < 2 || m > 1<<16 || m&(m-1) != 0 {
		panic("cardinality: FM m must be a power of two in [2, 65536]")
	}
	return &FM{bitmaps: make([]uint64, m), seed: seed}
}

// Add inserts an item.
func (f *FM) Add(item []byte) {
	h := hashx.XXHash64(item, f.seed)
	f.addHash(h)
}

// AddUint64 inserts an integer item without allocation.
func (f *FM) AddUint64(v uint64) { f.addHash(hashx.HashUint64(v, f.seed)) }

// Update implements core.Updater.
func (f *FM) Update(item []byte) { f.Add(item) }

func (f *FM) addHash(h uint64) {
	m := uint64(len(f.bitmaps))
	idx := h & (m - 1)
	rest := h >> uint(bits.TrailingZeros64(m)) // remaining bits choose the rank
	r := bits.TrailingZeros64(rest)
	if r > 63 {
		r = 63
	}
	f.bitmaps[idx] |= 1 << uint(r)
}

// Estimate returns the cardinality estimate.
func (f *FM) Estimate() float64 {
	m := len(f.bitmaps)
	var sumR float64
	for _, bm := range f.bitmaps {
		// R = index of lowest zero bit.
		sumR += float64(bits.TrailingZeros64(^bm))
	}
	return float64(m) / fmPhi * math.Pow(2, sumR/float64(m))
}

// StandardError returns the theoretical relative standard error 0.78/√m.
func (f *FM) StandardError() float64 { return 0.78 / math.Sqrt(float64(len(f.bitmaps))) }

// M returns the number of substreams.
func (f *FM) M() int { return len(f.bitmaps) }

// SizeBytes returns the bitmap storage size.
func (f *FM) SizeBytes() int { return len(f.bitmaps) * 8 }

// Merge ORs another FM sketch into this one; the result is exactly the
// sketch of the union of both input streams.
func (f *FM) Merge(other *FM) error {
	if len(f.bitmaps) != len(other.bitmaps) || f.seed != other.seed {
		return fmt.Errorf("%w: FM shape mismatch", core.ErrIncompatible)
	}
	for i, bm := range other.bitmaps {
		f.bitmaps[i] |= bm
	}
	return nil
}

// MarshalBinary serializes the sketch.
func (f *FM) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagFM, 1)
	w.U64(f.seed)
	w.U64Slice(f.bitmaps)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (f *FM) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagFM, 1)
	if err != nil {
		return err
	}
	seed := r.U64()
	bitmaps := r.U64Slice()
	if err := r.Done(); err != nil {
		return err
	}
	m := len(bitmaps)
	if m < 2 || m > 1<<16 || m&(m-1) != 0 {
		return fmt.Errorf("%w: FM bitmap count %d", core.ErrCorrupt, m)
	}
	f.seed, f.bitmaps = seed, bitmaps
	return nil
}
