package lsh

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/randx"
)

// SimHash is the random-hyperplane LSH of Charikar: each output bit
// records the sign of the input's projection onto a random Gaussian
// direction. For vectors at angle θ, the probability two SimHash bits
// agree is 1 − θ/π, so the Hamming similarity of two signatures
// estimates the cosine similarity — the primitive behind the paper's
// "learned vector embeddings … supported efficiently by LSH-based
// techniques" observation.
type SimHash struct {
	planes [][]float64 // bitsN hyperplanes × d
	d      int
	seed   uint64
}

// NewSimHash creates a SimHash with bitsN output bits (≤ 64) over
// d-dimensional inputs.
func NewSimHash(d, bitsN int, seed uint64) *SimHash {
	if d < 1 || bitsN < 1 || bitsN > 64 {
		panic("lsh: SimHash requires d >= 1 and 1 <= bits <= 64")
	}
	rng := randx.New(seed)
	planes := make([][]float64, bitsN)
	for i := range planes {
		planes[i] = make([]float64, d)
		for j := range planes[i] {
			planes[i][j] = rng.Normal()
		}
	}
	return &SimHash{planes: planes, d: d, seed: seed}
}

// Hash returns the signature of vector x.
func (s *SimHash) Hash(x []float64) uint64 {
	if len(x) != s.d {
		panic(fmt.Sprintf("lsh: input dimension %d, want %d", len(x), s.d))
	}
	var sig uint64
	for i, plane := range s.planes {
		var dot float64
		for j, v := range x {
			dot += plane[j] * v
		}
		if dot >= 0 {
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// Similarity estimates the cosine similarity between the vectors that
// produced two signatures: cos(π·(1 − agreement)).
func (s *SimHash) Similarity(a, b uint64) float64 {
	hamming := bits.OnesCount64(a ^ b)
	theta := math.Pi * float64(hamming) / float64(len(s.planes))
	return math.Cos(theta)
}

// EuclideanLSH is the p-stable (p = 2, Gaussian) LSH of Datar et al.:
// h(x) = ⌊(a·x + b)/w⌋ for Gaussian a and uniform offset b. Near
// points collide with higher probability; w tunes the distance scale.
type EuclideanLSH struct {
	a    [][]float64
	b    []float64
	w    float64
	d    int
	seed uint64
}

// NewEuclideanLSH creates k concatenated p-stable hash functions over
// d-dimensional inputs with bucket width w.
func NewEuclideanLSH(d, k int, w float64, seed uint64) *EuclideanLSH {
	if d < 1 || k < 1 || w <= 0 {
		panic("lsh: EuclideanLSH requires positive d, k, w")
	}
	rng := randx.New(seed)
	a := make([][]float64, k)
	b := make([]float64, k)
	for i := range a {
		a[i] = make([]float64, d)
		for j := range a[i] {
			a[i][j] = rng.Normal()
		}
		b[i] = rng.Float64() * w
	}
	return &EuclideanLSH{a: a, b: b, w: w, d: d, seed: seed}
}

// Hash returns the concatenated bucket ids for x, mixed into a single
// key suitable for a hash-table index.
func (e *EuclideanLSH) Hash(x []float64) uint64 {
	if len(x) != e.d {
		panic(fmt.Sprintf("lsh: input dimension %d, want %d", len(x), e.d))
	}
	var key uint64 = 14695981039346656037
	for i := range e.a {
		var dot float64
		for j, v := range x {
			dot += e.a[i][j] * v
		}
		bucket := int64(math.Floor((dot + e.b[i]) / e.w))
		key ^= uint64(bucket)
		key *= 1099511628211
	}
	return key
}

// CollisionProbability returns the analytic single-function collision
// probability for points at distance c: the p-stable formula
// p(c) = 1 − 2Φ(−w/c) − (2c/(√(2π)w))(1 − e^{−w²/2c²}).
func (e *EuclideanLSH) CollisionProbability(c float64) float64 {
	if c <= 0 {
		return 1
	}
	r := e.w / c
	return 1 - 2*gaussCDFNeg(r) - 2/(math.Sqrt(2*math.Pi)*r)*(1-math.Exp(-r*r/2))
}

// gaussCDFNeg returns P[Z < -r] for standard normal Z.
func gaussCDFNeg(r float64) float64 {
	return 0.5 * math.Erfc(r/math.Sqrt2)
}

// MarshalBinary serializes the SimHash. The hyperplanes are a pure
// function of (d, bits, seed) — NewSimHash draws them from a seeded
// RNG — so the payload is just the shape and the decoder regenerates
// identical planes.
func (s *SimHash) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagSimHash, 1)
	w.U32(uint32(s.d))
	w.U32(uint32(len(s.planes)))
	w.U64(s.seed)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a SimHash serialized by MarshalBinary,
// regenerating the hyperplanes from the stored seed. Shapes large
// enough to make that regeneration a memory hazard are rejected as
// corrupt.
func (s *SimHash) UnmarshalBinary(data []byte) error {
	rd, _, err := core.NewReaderVersioned(data, core.TagSimHash, 1)
	if err != nil {
		return err
	}
	d := int(rd.U32())
	bitsN := int(rd.U32())
	seed := rd.U64()
	if err := rd.Done(); err != nil {
		return err
	}
	if d < 1 || bitsN < 1 || bitsN > 64 || d*bitsN > 1<<18 {
		return fmt.Errorf("%w: simhash d=%d bits=%d", core.ErrCorrupt, d, bitsN)
	}
	*s = *NewSimHash(d, bitsN, seed)
	return nil
}
