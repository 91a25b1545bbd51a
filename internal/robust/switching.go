package robust

import (
	"math"

	"repro/internal/cardinality"
)

// Switching generalizes the sketch-switching defense (BJWY PODS 2020)
// over any Estimator: λ independent copies — each built by a caller
// factory with its own derived seed — absorb every update, but only
// the current copy's randomness is ever exposed through Estimate. The
// output is frozen until the current copy drifts by a (1+ε) factor,
// then the wrapper burns that copy and re-bases on the next fresh one.
// An adaptive adversary who steers updates against the revealed
// answers is always reacting to randomness that stops mattering after
// one output change; for monotone quantities (insertion-only F0),
// λ = O(log_{1+ε} n) copies cover the whole stream.
type Switching struct {
	copies []Estimator
	cur    int
	last   float64 // last revealed output; NaN until the first query
	eps    float64
	burned bool
}

// NewSwitching builds a switching wrapper with threshold eps over
// lambda copies produced by factory(i) — the factory must derive an
// independent seed per index, or the copies share their randomness and
// the defense is void.
func NewSwitching(eps float64, lambda int, factory func(i int) Estimator) *Switching {
	if !(eps > 0 && eps < 1) {
		panic("robust: eps must be in (0,1)")
	}
	if lambda < 1 {
		panic("robust: lambda must be >= 1")
	}
	copies := make([]Estimator, lambda)
	for i := range copies {
		copies[i] = factory(i)
	}
	return &Switching{copies: copies, eps: eps, last: math.NaN()}
}

// copySeed spaces per-copy seeds by a 64-bit golden-ratio stride, the
// same derivation every switching construction in this package uses.
func copySeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9e3779b97f4a7c15
}

// NewSwitchingHLL is switching over HLL copies of precision p.
func NewSwitchingHLL(eps float64, lambda int, p uint8, seed uint64) *Switching {
	return NewSwitching(eps, lambda, func(i int) Estimator {
		return cardinality.NewHLL(p, copySeed(seed, i))
	})
}

// NewSwitchingKMV is switching over bottom-k KMV copies — the
// extension that closes the "HLL only" gap in the original Distinct.
func NewSwitchingKMV(eps float64, lambda, k int, seed uint64) *Switching {
	return NewSwitching(eps, lambda, func(i int) Estimator {
		return cardinality.NewKMV(k, copySeed(seed, i))
	})
}

// Add inserts an item into every copy (the adversary's updates must
// reach unrevealed copies too).
func (s *Switching) Add(item []byte) {
	for _, c := range s.copies {
		c.Add(item)
	}
}

// AddUint64 inserts an integer item into every copy.
func (s *Switching) AddUint64(v uint64) {
	for _, c := range s.copies {
		c.AddUint64(v)
	}
}

// Estimate returns the robust estimate with (1+ε)-quantized output
// changes.
func (s *Switching) Estimate() float64 {
	if math.IsNaN(s.last) {
		s.last = s.copies[s.cur].Estimate()
		return s.last
	}
	cur := s.copies[s.cur].Estimate()
	if cur >= s.last/(1+s.eps) && cur <= s.last*(1+s.eps) {
		return s.last
	}
	if s.cur+1 == len(s.copies) {
		s.burned = true
		return s.last
	}
	s.cur++
	s.last = s.copies[s.cur].Estimate()
	return s.last
}

// SizeBytes returns the total memory across copies — the λ× price of
// the defense.
func (s *Switching) SizeBytes() int {
	total := 0
	for _, c := range s.copies {
		total += c.SizeBytes()
	}
	return total
}
