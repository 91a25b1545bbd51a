package privacy

import (
	"math"

	"repro/internal/hashx"
	"repro/internal/randx"
)

// PrivateCMS is the client/server frequency-estimation scheme the paper
// attributes to Apple's differential-privacy deployment: "taking a
// Count-Min sketch of a sparse input and applying randomized response
// to each entry". Each client picks one random sketch row, one-hot
// encodes its value into that row's bucket as a ±1 vector, flips each
// entry with the randomized-response probability, and submits the noisy
// vector; the server accumulates them into a Count-Mean sketch and
// de-biases point queries.
type PrivateCMS struct {
	width, depth int
	eps          float64
	flipP        float64 // per-entry flip probability
	seed         uint64
	counts       [][]float64
	n            int
	rows         []*hashx.KWise
}

// NewPrivateCMS creates a server-side aggregator with the given sketch
// shape and per-report privacy budget eps.
func NewPrivateCMS(width, depth int, eps float64, seed uint64) *PrivateCMS {
	if width < 2 || depth < 1 {
		panic("privacy: CMS requires width >= 2, depth >= 1")
	}
	if eps <= 0 {
		panic("privacy: eps must be positive")
	}
	counts := make([][]float64, depth)
	for i := range counts {
		counts[i] = make([]float64, width)
	}
	rowSeeds := hashx.SeedSequence(seed, depth)
	rows := make([]*hashx.KWise, depth)
	for i := range rows {
		rows[i] = hashx.NewKWise(2, rowSeeds[i])
	}
	e := math.Exp(eps / 2)
	return &PrivateCMS{
		width: width, depth: depth, eps: eps,
		flipP: 1 / (1 + e),
		seed:  seed, counts: counts, rows: rows,
	}
}

// Report is a client's noisy submission: a chosen row and a ±1 vector.
type Report struct {
	Row    int
	Vector []float64
}

// EncodeClient produces the ε-DP report for value on a client.
func (s *PrivateCMS) EncodeClient(value string, clientSeed uint64) Report {
	rng := randx.New(clientSeed)
	row := rng.Intn(s.depth)
	h := hashx.XXHash64([]byte(value), s.seed)
	bucket := s.rows[row].HashRange(h, s.width)
	vec := make([]float64, s.width)
	for i := range vec {
		v := -1.0
		if i == bucket {
			v = 1.0
		}
		if rng.Float64() < s.flipP {
			v = -v
		}
		vec[i] = v
	}
	return Report{Row: row, Vector: vec}
}

// Absorb folds a client report into the server sketch, applying the
// standard de-biasing transform per entry.
func (s *PrivateCMS) Absorb(rep Report) {
	cEps := (math.Exp(s.eps/2) + 1) / (math.Exp(s.eps/2) - 1)
	for i, v := range rep.Vector {
		s.counts[rep.Row][i] += cEps/2*v + 0.5
	}
	s.n++
}

// Estimate returns the de-biased frequency estimate for value. In
// expectation each client adds exactly 1 to its bucket in its chosen
// row, so Σ_r M[r][h_r(d)] ≈ f_d + (n − f_d)/width; inverting gives the
// count-mean estimator (width/(width−1))·(Σ − n/width).
func (s *PrivateCMS) Estimate(value string) float64 {
	h := hashx.XXHash64([]byte(value), s.seed)
	var sum float64
	for r := 0; r < s.depth; r++ {
		sum += s.counts[r][s.rows[r].HashRange(h, s.width)]
	}
	w := float64(s.width)
	return w / (w - 1) * (sum - float64(s.n)/w)
}
