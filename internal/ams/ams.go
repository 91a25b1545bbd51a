// Package ams implements the Alon–Matias–Szegedy "tug-of-war" sketch
// (STOC 1996) for the second frequency moment F₂ = Σᵢ f(i)², the result
// the paper credits with launching streaming algorithmics. Each atomic
// estimator maintains Z = Σᵢ f(i)·s(i) for a 4-wise independent ±1 hash
// s; E[Z²] = F₂ with Var[Z²] ≤ 2F₂². Averaging 1/ε² estimators and
// taking the median of O(log 1/δ) groups gives an (ε, δ) guarantee —
// the median-of-means pattern that recurs across randomized sketches.
//
// The sketch is linear, so it also estimates inner products ⟨f, g⟩
// between streams (experiment E9), and can be viewed as a small-space
// Johnson–Lindenstrauss transform.
package ams

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hashx"
)

// Sketch is an AMS F2 sketch organized as groups×perGroup atomic
// estimators. Queries average within groups and take the median across
// groups.
type Sketch struct {
	z        []int64 // groups*perGroup atomic counters
	signs    []*hashx.KWise
	groups   int
	perGroup int
	seed     uint64
	n        uint64
}

// New creates an AMS sketch with the given number of median groups and
// averaging estimators per group.
func New(groups, perGroup int, seed uint64) *Sketch {
	if groups < 1 || perGroup < 1 {
		panic("ams: groups and perGroup must be positive")
	}
	total := groups * perGroup
	seeds := hashx.SeedSequence(seed, total)
	signs := make([]*hashx.KWise, total)
	for i := range signs {
		signs[i] = hashx.NewKWise(4, seeds[i])
	}
	return &Sketch{
		z:        make([]int64, total),
		signs:    signs,
		groups:   groups,
		perGroup: perGroup,
		seed:     seed,
	}
}

// Add adds weight to item's frequency (negative weights supported —
// the sketch is linear over turnstile streams).
func (s *Sketch) Add(item []byte, weight int64) {
	s.AddHash(hashx.XXHash64(item, s.seed), weight)
}

// AddUint64 adds weight to an integer item's frequency.
func (s *Sketch) AddUint64(item uint64, weight int64) {
	s.AddHash(hashx.HashUint64(item, s.seed), weight)
}

// Update implements core.Updater (weight 1).
func (s *Sketch) Update(item []byte) { s.Add(item, 1) }

// AddHash folds a pre-hashed item into every atomic estimator.
func (s *Sketch) AddHash(h uint64, weight int64) {
	for i, sg := range s.signs {
		s.z[i] += sg.Sign(h) * weight
	}
	if weight >= 0 {
		s.n += uint64(weight)
	} else {
		s.n += uint64(-weight)
	}
}

// F2 returns the estimate of the second frequency moment.
func (s *Sketch) F2() float64 {
	meds := make([]float64, s.groups)
	for g := 0; g < s.groups; g++ {
		var sum float64
		for j := 0; j < s.perGroup; j++ {
			v := float64(s.z[g*s.perGroup+j])
			sum += v * v
		}
		meds[g] = sum / float64(s.perGroup)
	}
	return core.Median(meds)
}

// InnerProduct estimates ⟨f, g⟩ between two compatible sketches using
// the product of matched atomic estimators.
func (s *Sketch) InnerProduct(other *Sketch) (float64, error) {
	if err := s.compatible(other); err != nil {
		return 0, err
	}
	meds := make([]float64, s.groups)
	for g := 0; g < s.groups; g++ {
		var sum float64
		for j := 0; j < s.perGroup; j++ {
			i := g*s.perGroup + j
			sum += float64(s.z[i]) * float64(other.z[i])
		}
		meds[g] = sum / float64(s.perGroup)
	}
	return core.Median(meds), nil
}

func (s *Sketch) compatible(other *Sketch) error {
	if s.groups != other.groups || s.perGroup != other.perGroup || s.seed != other.seed {
		return fmt.Errorf("%w: AMS shape mismatch", core.ErrIncompatible)
	}
	return nil
}

// Merge adds another sketch counter-wise (linearity): the result
// sketches the concatenated stream.
func (s *Sketch) Merge(other *Sketch) error {
	if err := s.compatible(other); err != nil {
		return err
	}
	for i, v := range other.z {
		s.z[i] += v
	}
	s.n += other.n
	return nil
}

// N returns the total absolute weight processed.
func (s *Sketch) N() uint64 { return s.n }

// SizeBytes returns the counter storage size.
func (s *Sketch) SizeBytes() int { return len(s.z) * 8 }

// MarshalBinary serializes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagAMS, 1)
	w.U32(uint32(s.groups))
	w.U32(uint32(s.perGroup))
	w.U64(s.seed)
	w.U64(s.n)
	w.I64Slice(s.z)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagAMS, 1)
	if err != nil {
		return err
	}
	groups := int(r.U32())
	perGroup := int(r.U32())
	seed := r.U64()
	n := r.U64()
	z := r.I64Slice()
	if err := r.Done(); err != nil {
		return err
	}
	if groups < 1 || perGroup < 1 || len(z) != groups*perGroup {
		return fmt.Errorf("%w: AMS dims %dx%d with %d counters", core.ErrCorrupt, groups, perGroup, len(z))
	}
	fresh := New(groups, perGroup, seed)
	fresh.z = z
	fresh.n = n
	*s = *fresh
	return nil
}
