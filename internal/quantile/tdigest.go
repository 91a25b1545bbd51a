package quantile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// TDigest is Dunning's t-digest (the merging variant), the sketch the
// paper lists among the "new algorithms for the core problems …
// made available via libraries". It clusters values into centroids
// whose maximum size is governed by the k₁ scale function
// k(q) = (δ/2π)·asin(2q−1), which keeps clusters tiny near the tails —
// the reason t-digest dominates on extreme percentiles (ablation E6a)
// while giving up worst-case guarantees in the middle.
type TDigest struct {
	compression float64
	centroids   []centroid // sorted by mean
	buffer      []float64  // points not yet absorbed
	points      []centroid // flush's sorted buffer, as absorb reads it
	scratch     []centroid // absorb merges into it, then trades it for centroids
	n           uint64
	extent
}

type centroid struct {
	mean   float64
	weight float64
}

const tdigestBufferSize = 512

// NewTDigest creates a t-digest with the given compression δ (commonly
// 100; higher = more centroids = more accuracy).
func NewTDigest(compression float64) *TDigest {
	if compression < 10 {
		panic("quantile: t-digest compression must be >= 10")
	}
	return &TDigest{
		compression: compression,
		extent:      emptyExtent(),
	}
}

// Add inserts a value.
func (s *TDigest) Add(v float64) {
	if math.IsNaN(v) {
		panic("quantile: t-digest cannot ingest NaN")
	}
	s.buffer = append(s.buffer, v)
	s.n++
	s.cover(v, v)
	if len(s.buffer) >= tdigestBufferSize {
		s.flush()
	}
}

func totalWeight(cs []centroid) float64 {
	total := 0.0
	for _, c := range cs {
		total += c.weight
	}
	return total
}

// k1 is the tail-sensitive scale function.
func (s *TDigest) k1(q float64) float64 {
	return s.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// flush absorbs the buffered points into the centroid list.
func (s *TDigest) flush() {
	if len(s.buffer) == 0 {
		return
	}
	sort.Float64s(s.buffer)
	s.points = s.points[:0]
	for _, v := range s.buffer {
		s.points = append(s.points, centroid{mean: v, weight: 1})
	}
	s.buffer = s.buffer[:0]
	s.absorb(s.points)
}

// absorb merges points, sorted by mean, with the centroid list into one
// weighted sequence (a centroid before a point of equal mean) and runs
// the scale-function pass over it: neighbours join while the cluster
// they would form spans at most one unit of k₁. The sequence is built in
// a slice the digest keeps, so a digest in steady state absorbs without
// allocating.
func (s *TDigest) absorb(points []centroid) {
	merged := s.scratch[:0]
	i, j := 0, 0
	for i < len(s.centroids) || j < len(points) {
		if j >= len(points) || (i < len(s.centroids) && s.centroids[i].mean <= points[j].mean) {
			merged = append(merged, s.centroids[i])
			i++
		} else {
			merged = append(merged, points[j])
			j++
		}
	}
	if len(merged) == 0 {
		return
	}
	total := totalWeight(merged)
	out := merged[:0]
	cur := merged[0]
	accumulated := 0.0 // weight fully committed to out
	for _, c := range merged[1:] {
		qLeft := accumulated / total
		qRight := (accumulated + cur.weight + c.weight) / total
		if s.k1(qRight)-s.k1(qLeft) <= 1 {
			// Merge c into cur.
			w := cur.weight + c.weight
			cur.mean += (c.mean - cur.mean) * c.weight / w
			cur.weight = w
		} else {
			out = append(out, cur)
			accumulated += cur.weight
			cur = c
		}
	}
	s.centroids, s.scratch = append(out, cur), s.centroids[:0]
}

// Quantile returns the estimated q-quantile by interpolating between
// centroid means.
func (s *TDigest) Quantile(q float64) float64 {
	s.flush()
	if len(s.centroids) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.minV
	}
	if q >= 1 {
		return s.maxV
	}
	target := q * totalWeight(s.centroids)
	var acc float64
	for i, c := range s.centroids {
		if acc+c.weight >= target {
			// Interpolate inside this centroid.
			if c.weight <= 1 || i == 0 && target < c.weight/2 {
				return c.mean
			}
			frac := (target - acc) / c.weight
			lo, hi := s.span(i)
			return lo + (hi-lo)*frac
		}
		acc += c.weight
	}
	return s.maxV
}

// span is the stretch of values centroid i stands for: from halfway to
// its left neighbour to halfway to its right one, the exact extremes at
// the ends.
func (s *TDigest) span(i int) (lo, hi float64) {
	lo, hi = s.minV, s.maxV
	if i > 0 {
		lo = (s.centroids[i-1].mean + s.centroids[i].mean) / 2
	}
	if i < len(s.centroids)-1 {
		hi = (s.centroids[i].mean + s.centroids[i+1].mean) / 2
	}
	return lo, hi
}

// N returns the number of inserted values.
func (s *TDigest) N() uint64 { return s.n }

// SizeBytes returns the approximate memory footprint.
func (s *TDigest) SizeBytes() int {
	s.flush()
	return len(s.centroids) * 16
}

// Merge folds another t-digest into this one by absorbing its
// centroids as weighted points (the standard merging strategy).
func (s *TDigest) Merge(other *TDigest) error {
	if s.compression != other.compression {
		return fmt.Errorf("%w: t-digest compression %v vs %v",
			core.ErrIncompatible, s.compression, other.compression)
	}
	other.flush()
	s.flush()
	s.absorb(other.centroids)
	s.n += other.n
	s.cover(other.minV, other.maxV)
	return nil
}

// MarshalBinary serializes the digest.
func (s *TDigest) MarshalBinary() ([]byte, error) {
	s.flush()
	w := core.NewWriter(core.TagTDigest, 1)
	w.F64(s.compression)
	w.U64(s.n)
	w.F64(s.minV)
	w.F64(s.maxV)
	w.U32(uint32(len(s.centroids)))
	for _, c := range s.centroids {
		w.F64(c.mean)
		w.F64(c.weight)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a digest serialized by MarshalBinary.
func (s *TDigest) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagTDigest, 1)
	if err != nil {
		return err
	}
	compression := r.F64()
	n := r.U64()
	minV := r.F64()
	maxV := r.F64()
	cnt := r.Count(16) // 2 × F64 per centroid
	if r.Err() != nil {
		return r.Err()
	}
	if !(compression >= 10) { // not a number included
		return fmt.Errorf("%w: t-digest compression %v", core.ErrCorrupt, compression)
	}
	centroids := make([]centroid, cnt)
	for i := range centroids {
		centroids[i] = centroid{mean: r.F64(), weight: r.F64()}
	}
	if err := r.Done(); err != nil {
		return err
	}
	for i, c := range centroids {
		if !(c.weight > 0) || math.IsInf(c.weight, 0) || math.IsNaN(c.mean) {
			return fmt.Errorf("%w: t-digest centroid %d (mean=%v weight=%v)",
				core.ErrCorrupt, i, c.mean, c.weight)
		}
		if i > 0 && c.mean < centroids[i-1].mean {
			return fmt.Errorf("%w: t-digest centroids unsorted", core.ErrCorrupt)
		}
	}
	s.compression, s.n, s.extent, s.centroids = compression, n, extent{minV, maxV}, centroids
	s.buffer = nil
	return nil
}
