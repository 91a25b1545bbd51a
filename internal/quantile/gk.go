// Package quantile implements the streaming-quantile lineage the paper
// calls "a keystone problem for sketching over the years": the
// Manku–Rajagopalan–Lindsay multi-level buffer algorithm (1998), the
// Greenwald–Khanna summary (2001), the q-digest (Shrivastava et al.
// 2004), the t-digest (Dunning), and the near-optimal KLL sketch
// (Karnin–Lang–Liberty 2016), plus an exact baseline for scoring.
//
// All summaries answer rank/quantile queries with additive rank error
// ε·n. GK is deterministic with O((1/ε)·log(εn)) space but does not
// merge cleanly; q-digest and KLL are mergeable (q-digest for bounded
// integer domains, KLL for arbitrary ordered data); t-digest trades
// worst-case guarantees for excellent tail accuracy in practice.
// Experiments E6/E6a reproduce the accuracy-space frontier.
package quantile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// GK is the Greenwald–Khanna ε-approximate quantile summary. It stores
// tuples (v, g, Δ): v a seen value, g the gap in minimum rank from the
// previous tuple, Δ the uncertainty. The invariant g + Δ ≤ 2εn bounds
// every rank query's error by εn.
type GK struct {
	eps     float64
	n       uint64
	tuples  []gkTuple
	pending int // inserts since last compress
}

type gkTuple struct {
	v    float64
	g    uint64
	delt uint64
}

// NewGK creates a GK summary with rank-error guarantee eps.
func NewGK(eps float64) *GK {
	if !(eps > 0 && eps < 1) {
		panic("quantile: GK eps must be in (0,1)")
	}
	return &GK{eps: eps}
}

// Add inserts a value.
func (s *GK) Add(v float64) {
	// Find insertion position (first tuple with value >= v).
	i := sort.Search(len(s.tuples), func(i int) bool { return s.tuples[i].v >= v })
	var delt uint64
	if i > 0 && i < len(s.tuples) {
		delt = uint64(math.Floor(2 * s.eps * float64(s.n)))
	}
	t := gkTuple{v: v, g: 1, delt: delt}
	s.tuples = append(s.tuples, gkTuple{})
	copy(s.tuples[i+1:], s.tuples[i:])
	s.tuples[i] = t
	s.n++
	s.pending++
	if s.pending >= int(1/(2*s.eps)) {
		s.compress()
		s.pending = 0
	}
}

// compress merges adjacent tuples whose combined uncertainty stays
// within the 2εn budget.
func (s *GK) compress() {
	if len(s.tuples) < 3 {
		return
	}
	budget := uint64(math.Floor(2 * s.eps * float64(s.n)))
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	// Walk from the second tuple, merging forward when allowed. The
	// last tuple is always kept (it pins the maximum).
	for i := 1; i < len(s.tuples); i++ {
		t := s.tuples[i]
		last := &out[len(out)-1]
		if len(out) > 1 && i < len(s.tuples)-1 && last.g+t.g+t.delt <= budget {
			// Merge last into t (t absorbs last's gap).
			t.g += last.g
			out[len(out)-1] = t
		} else {
			out = append(out, t)
		}
	}
	s.tuples = out
}

// Quantile returns a value whose rank is within εn of q·n.
func (s *GK) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.n)))
	target := rank + uint64(math.Floor(s.eps*float64(s.n)))
	var rmin uint64
	for i, t := range s.tuples {
		rmin += t.g
		if rmin+t.delt > target {
			if i == 0 {
				return t.v
			}
			return s.tuples[i-1].v
		}
	}
	return s.tuples[len(s.tuples)-1].v
}

// N returns the number of values inserted.
func (s *GK) N() uint64 { return s.n }

// Eps returns the configured error guarantee.
func (s *GK) Eps() float64 { return s.eps }

// SizeBytes returns the approximate memory footprint.
func (s *GK) SizeBytes() int { return len(s.tuples) * 24 }

// MarshalBinary serializes the summary.
func (s *GK) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagGK, 1)
	w.F64(s.eps)
	w.U64(s.n)
	w.U32(uint32(len(s.tuples)))
	for _, t := range s.tuples {
		w.F64(t.v)
		w.U64(t.g)
		w.U64(t.delt)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a summary serialized by MarshalBinary.
func (s *GK) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagGK, 1)
	if err != nil {
		return err
	}
	eps := r.F64()
	n := r.U64()
	cnt := r.Count(24) // F64 + 2 × U64 per tuple
	if r.Err() != nil {
		return r.Err()
	}
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("%w: GK eps %v", core.ErrCorrupt, eps)
	}
	tuples := make([]gkTuple, cnt)
	var gSum uint64
	for i := range tuples {
		tuples[i] = gkTuple{v: r.F64(), g: r.U64(), delt: r.U64()}
		gSum += tuples[i].g
	}
	if err := r.Done(); err != nil {
		return err
	}
	if gSum != n {
		return fmt.Errorf("%w: GK gap sum %d != n %d", core.ErrCorrupt, gSum, n)
	}
	s.eps, s.n, s.tuples, s.pending = eps, n, tuples, 0
	return nil
}

// Merge combines another GK summary. GK is not a cleanly mergeable
// summary (the paper's Mergeable Summaries discussion is exactly about
// this); the standard practical approach is to re-insert the other
// summary's tuples weighted by their gaps, which preserves a (slightly
// degraded) additive guarantee of εₐ + ε_b.
func (s *GK) Merge(other *GK) error {
	if math.Abs(s.eps-other.eps) > 1e-12 {
		return fmt.Errorf("%w: GK eps %v vs %v", core.ErrIncompatible, s.eps, other.eps)
	}
	if other.n == 0 {
		return nil
	}
	for _, t := range other.tuples {
		for g := uint64(0); g < t.g; g++ {
			s.Add(t.v)
		}
	}
	return nil
}
