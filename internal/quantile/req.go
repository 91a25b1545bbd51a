package quantile

import (
	"repro/internal/core"
	"repro/internal/randx"
)

// REQ is the Relative-Error Quantiles sketch of Cormode, Karnin,
// Liberty, Thaler and Veselý — the PODS 2021 best paper the survey
// lists among its award-winning "gems". Where KLL guarantees additive
// rank error ε·n everywhere, REQ guarantees rank error ε·R(x) where
// R(x) is the rank from the favored end of the distribution: exactly
// what tail monitoring needs (a p99.999 estimate that is off by ε·n is
// useless; off by ε·(n−rank) is sharp).
//
// The construction follows the paper's relative-compactor scheme: a
// hierarchy of compactors like KLL's, except each compactor always
// *protects* its top section (the items nearest the favored end) and
// only compacts a prefix of its buffer, choosing the protected size by
// a random schedule. This implementation favors the upper tail (high
// ranks), so Max is exact: the favored end is never compacted away.
type REQ struct{ compactor }

// reqPolicy: 2 sections of size k at the base, +1 section per level
// above it so heavier levels keep more of their tail exact, capped at 8
// to keep memory O(k·log²(n/k)). A compaction protects the top section
// (highest values, the favored tail): at least k, randomized in whole
// sections to keep the error unbiased across compactions.
var reqPolicy = policy{
	name:      "REQ",
	minK:      4,
	salt:      0x524551,
	capacity:  func(k, level, _ int) int { return min(2+level, 8) * k },
	protected: func(k int, rng *randx.RNG) int { return k * (1 + rng.Intn(2)) },
}

// NewREQ creates a relative-error quantile sketch with section size k
// (accuracy ε ≈ c/k for a constant c ≈ 4; k = 32 gives ~1% relative
// rank error at the top). An odd k is bumped to the next even one.
func NewREQ(k int, seed uint64) *REQ {
	s := &REQ{newCompactor(&reqPolicy, k, seed)}
	s.k += k % 2
	return s
}

// Quantile returns an approximate q-quantile with relative error in
// the upper tail: the estimate's rank is within ε·(n − q·n) of q·n for
// q near 1. q is a fraction of the weight retained.
func (s *REQ) Quantile(q float64) float64 {
	var total uint64
	for level, buf := range s.levels {
		total += uint64(len(buf)) << uint(level)
	}
	return s.quantile(q, total)
}

// Merge folds another REQ sketch into this one by concatenating levels
// and re-compacting.
func (s *REQ) Merge(other *REQ) error { return s.merge(&other.compactor) }

// MarshalBinary serializes the sketch.
func (s *REQ) MarshalBinary() ([]byte, error) { return s.marshal(core.TagREQ) }

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *REQ) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagREQ, 1)
	if err != nil {
		return err
	}
	return s.unmarshal(r, &reqPolicy)
}
