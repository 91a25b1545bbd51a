package sample

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hashx"
)

// LpSampler samples an index from a turnstile stream with probability
// proportional to |f(i)|^p — the problem of "Tight bounds for Lp
// samplers" (Jowhari, Saglam, Tardos; PODS 2011, Test-of-Time award in
// the paper's gems list). It implements precision sampling with an
// exponential race: each index i is assigned a deterministic
// pseudo-random scale eᵢ ~ Exp(1) and the sketch stores the scaled
// vector g(i) = f(i)/eᵢ^{1/p} in a linear Count-Sketch. By the
// exponential race property, P[|f(i)|^p/eᵢ is maximal] =
// |f(i)|^p / Σⱼ|f(j)|^p *exactly*, so the index maximizing |g(i)| is an
// exact Lp sample when the scaled values are read exactly; sketch
// noise perturbs this by O(1/√width).
//
// Substitution note (DESIGN.md §3): the JST construction recovers the
// maximum via dyadic heavy-hitter structures; this implementation
// enumerates a caller-provided bounded domain at query time, which
// preserves the sublinear *space* story (the sketch is small and
// linear; only the query walks the domain).
type LpSampler struct {
	p      float64
	width  int
	depth  int
	counts [][]float64
	bucket []*hashx.KWise
	sign   []*hashx.KWise
	scale  *hashx.KWise // drives the per-index u_i
	seed   uint64
}

// NewLpSampler creates a sampler for the given p (1 or 2 are the
// standard choices; any p > 0 works) with a width×depth scaled sketch.
func NewLpSampler(p float64, width, depth int, seed uint64) *LpSampler {
	if p <= 0 {
		panic("sample: Lp sampler requires p > 0")
	}
	if width < 2 || depth < 1 {
		panic("sample: Lp sampler requires width >= 2, depth >= 1")
	}
	if depth%2 == 0 {
		depth++
	}
	seeds := hashx.SeedSequence(seed, 2*depth+1)
	bucket := make([]*hashx.KWise, depth)
	sign := make([]*hashx.KWise, depth)
	counts := make([][]float64, depth)
	for i := 0; i < depth; i++ {
		bucket[i] = hashx.NewKWise(2, seeds[2*i])
		sign[i] = hashx.NewKWise(4, seeds[2*i+1])
		counts[i] = make([]float64, width)
	}
	return &LpSampler{
		p: p, width: width, depth: depth,
		counts: counts, bucket: bucket, sign: sign,
		scale: hashx.NewKWise(2, seeds[2*depth]),
		seed:  seed,
	}
}

// u returns the deterministic Exp(1) scale for index i, bounded away
// from zero to keep g finite.
func (s *LpSampler) u(index uint64) float64 {
	v := float64(s.scale.Hash(index)) / float64(hashx.MersennePrime61)
	if v < 1e-15 {
		v = 1e-15
	}
	e := -math.Log(v) // Exp(1) via inverse transform
	if e < 1e-12 {
		e = 1e-12
	}
	return e
}

// Update adds weight to index (negative weights supported — the
// structure is linear).
func (s *LpSampler) Update(index uint64, weight float64) {
	g := weight / math.Pow(s.u(index), 1/s.p)
	for r := 0; r < s.depth; r++ {
		j := s.bucket[r].HashRange(index, s.width)
		s.counts[r][j] += float64(s.sign[r].Sign(index)) * g
	}
}

// estimate returns the median estimate of the scaled value g(i).
func (s *LpSampler) estimate(index uint64) float64 {
	ests := make([]float64, s.depth)
	for r := 0; r < s.depth; r++ {
		j := s.bucket[r].HashRange(index, s.width)
		ests[r] = float64(s.sign[r].Sign(index)) * s.counts[r][j]
	}
	return core.Median(ests)
}

// Sample scans the domain [0, domain) and returns the index with the
// maximal |ĝ(i)| — an approximate Lp sample — together with the
// recovered weight estimate f̂(i) = ĝ(i)·uᵢ^{1/p}. ok is false when the
// sketch appears empty.
func (s *LpSampler) Sample(domain uint64) (index uint64, weight float64, ok bool) {
	bestAbs := 0.0
	for i := uint64(0); i < domain; i++ {
		g := s.estimate(i)
		if a := math.Abs(g); a > bestAbs {
			bestAbs = a
			index = i
			weight = g * math.Pow(s.u(i), 1/s.p)
		}
	}
	return index, weight, bestAbs > 0
}

// Merge adds another sampler cell-wise (linearity).
func (s *LpSampler) Merge(other *LpSampler) error {
	if s.p != other.p || s.width != other.width || s.depth != other.depth || s.seed != other.seed {
		return fmt.Errorf("%w: Lp sampler shape mismatch", core.ErrIncompatible)
	}
	for r := range s.counts {
		for j := range s.counts[r] {
			s.counts[r][j] += other.counts[r][j]
		}
	}
	return nil
}

// SizeBytes returns the sketch memory — independent of the domain.
func (s *LpSampler) SizeBytes() int { return s.depth * s.width * 8 }
