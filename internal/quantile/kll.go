package quantile

import (
	"math"

	"repro/internal/core"
	"repro/internal/randx"
)

// KLL is the Karnin–Lang–Liberty quantile sketch (FOCS 2016), the
// near-optimal end of the paper's quantile lineage: a hierarchy of
// compactors where level h holds items of weight 2^h. When a level
// fills, it sorts itself and promotes every other item (random offset)
// to the level above — halving the count and doubling the weight.
// Capacities shrink geometrically (c^depth) down the hierarchy, giving
// O((1/ε)·√log(1/δ)) space for additive rank error εn. KLL sketches
// merge by concatenating levels and re-compacting, which is how the
// mergeability experiment E7 exercises it.
type KLL struct{ compactor }

// kllPolicy: the highest level has capacity k and each level below it
// shrinks by c = 2/3, never under 2; a compaction takes the whole level.
var kllPolicy = policy{
	name: "KLL",
	minK: 8,
	salt: 0x4b4c4c,
	capacity: func(k, level, height int) int {
		depth := height - 1 - level
		return max(2, int(math.Ceil(float64(k)*math.Pow(2.0/3.0, float64(depth)))))
	},
	protected: func(int, *randx.RNG) int { return 0 },
}

// NewKLL creates a KLL sketch with top-compactor capacity k (commonly
// 200 for ~1% rank error). Larger k means smaller error: ε ≈ 2.3/k.
func NewKLL(k int, seed uint64) *KLL {
	return &KLL{newCompactor(&kllPolicy, k, seed)}
}

// Quantile returns an approximate q-quantile.
func (s *KLL) Quantile(q float64) float64 { return s.quantile(q, s.n) }

// Eps returns the approximate rank-error guarantee ≈ 2.3/k.
func (s *KLL) Eps() float64 { return 2.3 / float64(s.k) }

// Merge folds another KLL sketch into this one by concatenating levels
// and re-compacting; the rank guarantee is preserved (KLL is fully
// mergeable).
func (s *KLL) Merge(other *KLL) error { return s.merge(&other.compactor) }

// MarshalBinary serializes the sketch.
func (s *KLL) MarshalBinary() ([]byte, error) { return s.marshal(core.TagKLL) }

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *KLL) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagKLL, 1)
	if err != nil {
		return err
	}
	return s.unmarshal(r, &kllPolicy)
}
