// Package jl implements Johnson–Lindenstrauss dimensionality-reduction
// transforms: the dense Gaussian and Rademacher projections that made
// the 1984 lemma constructive in the 1990s, and the sparse
// (Count-Sketch-structured) transform of Kane and Nelson (2012) that
// the paper highlights among the deep theoretical advances.
//
// A JL transform maps x ∈ R^d to y ∈ R^k with k = O(ε⁻²·log 1/δ) so
// that ‖y‖ = (1±ε)‖x‖, preserving pairwise Euclidean distances among
// any fixed point set (experiment E10). The sparse transform touches
// only s ≪ k coordinates per input coordinate, trading a constant in k
// for an s/k-fold speedup on sparse inputs.
package jl

import (
	"fmt"
	"math"

	"repro/internal/hashx"
	"repro/internal/randx"
)

// Transform maps vectors from dimension d to dimension k.
type Transform interface {
	// Apply projects x (length d) to a new length-k vector.
	Apply(x []float64) []float64
	// InputDim returns d.
	InputDim() int
	// OutputDim returns k.
	OutputDim() int
}

// Dense is a dense random projection with entries drawn i.i.d. from
// either a Gaussian or Rademacher (±1) distribution, scaled by 1/√k.
type Dense struct {
	mat  []float64 // k rows × d columns, row-major
	d, k int
}

// NewGaussian creates a dense Gaussian JL transform from d to k
// dimensions.
func NewGaussian(d, k int, seed uint64) *Dense {
	t := newDense(d, k)
	rng := randx.New(seed)
	scale := 1 / math.Sqrt(float64(k))
	for i := range t.mat {
		t.mat[i] = rng.Normal() * scale
	}
	return t
}

// NewRademacher creates a dense ±1/√k JL transform (Achlioptas-style),
// the matrix form of the AMS tug-of-war sketch.
func NewRademacher(d, k int, seed uint64) *Dense {
	t := newDense(d, k)
	rng := randx.New(seed)
	scale := 1 / math.Sqrt(float64(k))
	for i := range t.mat {
		if rng.Bool() {
			t.mat[i] = scale
		} else {
			t.mat[i] = -scale
		}
	}
	return t
}

func newDense(d, k int) *Dense {
	if d < 1 || k < 1 {
		panic("jl: dimensions must be positive")
	}
	return &Dense{mat: make([]float64, d*k), d: d, k: k}
}

// Apply projects x.
func (t *Dense) Apply(x []float64) []float64 {
	if len(x) != t.d {
		panic(fmt.Sprintf("jl: input dimension %d, want %d", len(x), t.d))
	}
	out := make([]float64, t.k)
	for i := 0; i < t.k; i++ {
		row := t.mat[i*t.d : (i+1)*t.d]
		var sum float64
		for j, v := range x {
			sum += row[j] * v
		}
		out[i] = sum
	}
	return out
}

// InputDim returns d.
func (t *Dense) InputDim() int { return t.d }

// OutputDim returns k.
func (t *Dense) OutputDim() int { return t.k }

// Sparse is the Kane–Nelson sparse JL transform in its CountSketch-
// block form: the output is divided into s blocks of k/s buckets; each
// input coordinate lands in one bucket per block with a ±1 sign, scaled
// by 1/√s. Each input coordinate touches exactly s output coordinates.
type Sparse struct {
	d, k, s int
	bucket  []*hashx.KWise
	sign    []*hashx.KWise
	block   int // buckets per block = k/s
}

// NewSparse creates a sparse JL transform with sparsity s (number of
// nonzeros per column); s must divide k.
func NewSparse(d, k, s int, seed uint64) *Sparse {
	if d < 1 || k < 1 || s < 1 {
		panic("jl: dimensions must be positive")
	}
	if k%s != 0 {
		panic("jl: sparsity must divide output dimension")
	}
	seeds := hashx.SeedSequence(seed, 2*s)
	bucket := make([]*hashx.KWise, s)
	sign := make([]*hashx.KWise, s)
	for i := 0; i < s; i++ {
		bucket[i] = hashx.NewKWise(2, seeds[2*i])
		sign[i] = hashx.NewKWise(4, seeds[2*i+1])
	}
	return &Sparse{d: d, k: k, s: s, bucket: bucket, sign: sign, block: k / s}
}

// Apply projects x, visiting only s output coordinates per nonzero
// input coordinate.
func (t *Sparse) Apply(x []float64) []float64 {
	if len(x) != t.d {
		panic(fmt.Sprintf("jl: input dimension %d, want %d", len(x), t.d))
	}
	out := make([]float64, t.k)
	scale := 1 / math.Sqrt(float64(t.s))
	for j, v := range x {
		if v == 0 {
			continue
		}
		for b := 0; b < t.s; b++ {
			pos := b*t.block + t.bucket[b].HashRange(uint64(j), t.block)
			out[pos] += float64(t.sign[b].Sign(uint64(j))) * v * scale
		}
	}
	return out
}

// InputDim returns d.
func (t *Sparse) InputDim() int { return t.d }

// OutputDim returns k.
func (t *Sparse) OutputDim() int { return t.k }

// Distance returns the Euclidean distance between two vectors.
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("jl: dimension mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
