// Package fetchsgd reproduces the sketching-for-ML application the
// paper discusses (§3, "Optimizing Machine Learning"): FetchSGD
// (Rothchild et al., ICML 2020) compresses each worker's gradient into
// a Count-Sketch; the server merges the sketches (they are linear),
// recovers the top-k coordinates, and applies them with momentum and
// error feedback — cutting per-round communication from O(d) to the
// sketch size while matching uncompressed accuracy on overparameterized
// models. Experiment E16 reproduces the communication/accuracy
// tradeoff on synthetic linear models with simulated workers.
package fetchsgd

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/hashx"
)

// GradSketch is a Count-Sketch over float-valued vectors — the gradient
// compressor. It is linear: sketches of per-worker gradients sum to the
// sketch of the aggregate gradient.
type GradSketch struct {
	rows, cols int
	data       [][]float64
	bucket     []*hashx.KWise
	sign       []*hashx.KWise
	seed       uint64
}

// NewGradSketch creates a rows×cols gradient sketch. rows should be odd
// (median recovery); even values are raised by one.
func NewGradSketch(rows, cols int, seed uint64) *GradSketch {
	if rows < 1 || cols < 1 {
		panic("fetchsgd: sketch dimensions must be positive")
	}
	if rows%2 == 0 {
		rows++
	}
	data := make([][]float64, rows)
	for i := range data {
		data[i] = make([]float64, cols)
	}
	seeds := hashx.SeedSequence(seed, 2*rows)
	bucket := make([]*hashx.KWise, rows)
	sign := make([]*hashx.KWise, rows)
	for i := 0; i < rows; i++ {
		bucket[i] = hashx.NewKWise(2, seeds[2*i])
		sign[i] = hashx.NewKWise(4, seeds[2*i+1])
	}
	return &GradSketch{rows: rows, cols: cols, data: data, bucket: bucket, sign: sign, seed: seed}
}

// Accumulate folds vec into the sketch (scaled by scale).
func (s *GradSketch) Accumulate(vec []float64, scale float64) {
	for j, v := range vec {
		if v == 0 {
			continue
		}
		x := v * scale
		for r := 0; r < s.rows; r++ {
			pos := s.bucket[r].HashRange(uint64(j), s.cols)
			s.data[r][pos] += float64(s.sign[r].Sign(uint64(j))) * x
		}
	}
}

// Add merges another sketch (linearity).
func (s *GradSketch) Add(other *GradSketch) error {
	if s.rows != other.rows || s.cols != other.cols || s.seed != other.seed {
		return fmt.Errorf("%w: gradient sketch shape mismatch", core.ErrIncompatible)
	}
	for r := range s.data {
		for j := range s.data[r] {
			s.data[r][j] += other.data[r][j]
		}
	}
	return nil
}

// Estimate returns the unbiased estimate of coordinate j.
func (s *GradSketch) Estimate(j int) float64 {
	ests := make([]float64, s.rows)
	for r := 0; r < s.rows; r++ {
		pos := s.bucket[r].HashRange(uint64(j), s.cols)
		ests[r] = float64(s.sign[r].Sign(uint64(j))) * s.data[r][pos]
	}
	sort.Float64s(ests)
	return ests[len(ests)/2]
}

// TopK recovers the k largest-magnitude coordinates of the sketched
// vector over dimension d, returning a sparse map coordinate → value.
func (s *GradSketch) TopK(d, k int) map[int]float64 {
	type cv struct {
		coord int
		val   float64
	}
	all := make([]cv, 0, d)
	for j := 0; j < d; j++ {
		v := s.Estimate(j)
		if v != 0 {
			all = append(all, cv{j, v})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return math.Abs(all[i].val) > math.Abs(all[j].val)
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make(map[int]float64, len(all))
	for _, e := range all {
		out[e.coord] = e.val
	}
	return out
}

// SubtractSparse removes a sparse vector from the sketch (error
// feedback: the recovered mass leaves the accumulator).
func (s *GradSketch) SubtractSparse(sparse map[int]float64) {
	for j, v := range sparse {
		for r := 0; r < s.rows; r++ {
			pos := s.bucket[r].HashRange(uint64(j), s.cols)
			s.data[r][pos] -= float64(s.sign[r].Sign(uint64(j))) * v
		}
	}
}

// SizeBytes returns the sketch payload size — the per-round
// communication cost E16 reports.
func (s *GradSketch) SizeBytes() int { return s.rows * s.cols * 8 }
