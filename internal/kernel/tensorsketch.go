package kernel

import (
	"fmt"
	"math"

	"repro/internal/hashx"
)

// TensorSketch maps x ∈ R^d to R^k such that ⟨TS(x), TS(y)⟩ is an
// unbiased estimate of (⟨x, y⟩)^degree. It keeps `degree` independent
// Count-Sketch hash pairs; applying it computes each factor's
// Count-Sketch and combines them by circular convolution (FFT).
// Variance decays as 1/k, so larger output dimensions sharpen the
// kernel estimate — experiment E18 sweeps this.
type TensorSketch struct {
	d, k, degree int
	bucket       []*hashx.KWise
	sign         []*hashx.KWise
}

// NewTensorSketch creates a TensorSketch for the polynomial kernel of
// the given degree over d-dimensional inputs, with output dimension k
// (a power of two, for the FFT).
func NewTensorSketch(d, k, degree int, seed uint64) *TensorSketch {
	if d < 1 || degree < 1 {
		panic("kernel: d and degree must be positive")
	}
	if k < 2 || k&(k-1) != 0 {
		panic("kernel: output dimension must be a power of two >= 2")
	}
	seeds := hashx.SeedSequence(seed, 2*degree)
	bucket := make([]*hashx.KWise, degree)
	sign := make([]*hashx.KWise, degree)
	for i := 0; i < degree; i++ {
		bucket[i] = hashx.NewKWise(2, seeds[2*i])
		sign[i] = hashx.NewKWise(4, seeds[2*i+1])
	}
	return &TensorSketch{d: d, k: k, degree: degree, bucket: bucket, sign: sign}
}

// countSketch computes the i-th factor Count-Sketch of x.
func (t *TensorSketch) countSketch(x []float64, factor int) []float64 {
	out := make([]float64, t.k)
	for j, v := range x {
		if v == 0 {
			continue
		}
		pos := t.bucket[factor].HashRange(uint64(j), t.k)
		out[pos] += float64(t.sign[factor].Sign(uint64(j))) * v
	}
	return out
}

// Apply returns the TensorSketch feature vector of x.
func (t *TensorSketch) Apply(x []float64) []float64 {
	if len(x) != t.d {
		panic(fmt.Sprintf("kernel: input dimension %d, want %d", len(x), t.d))
	}
	acc := t.countSketch(x, 0)
	for f := 1; f < t.degree; f++ {
		acc = circularConvolve(acc, t.countSketch(x, f))
	}
	return acc
}

// Dot returns the inner product of two feature vectors — the kernel
// estimate.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// PolyKernel returns the exact polynomial kernel (⟨x,y⟩)^degree for
// scoring.
func PolyKernel(x, y []float64, degree int) float64 {
	return math.Pow(Dot(x, y), float64(degree))
}

// InputDim returns d.
func (t *TensorSketch) InputDim() int { return t.d }

// OutputDim returns k.
func (t *TensorSketch) OutputDim() int { return t.k }
