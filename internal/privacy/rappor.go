package privacy

import (
	"math"

	"repro/internal/hashx"
	"repro/internal/randx"
)

// RAPPOR implements the core of Google's RAPPOR system (Erlingsson,
// Pihur, Korolova — CCS 2014), which the paper summarizes as "combining
// the Bloom filter summary with randomized response". Each client
// encodes its categorical value into a small Bloom filter of m bits and
// k hashes, then flips each bit with the randomized-response
// probability; the server aggregates millions of noisy filters and
// de-biases per-bit counts to estimate each candidate value's
// frequency.
//
// This implementation is the one-round ("permanent response only")
// variant: it preserves the estimation pipeline the paper's claim is
// about while omitting the memoized instantaneous-response layer that
// only matters for longitudinal reporting.
type RAPPOR struct {
	m, k int
	eps  float64
	f    float64 // per-bit flip probability derived from eps
	seed uint64
}

// NewRAPPOR creates an encoder/decoder pair configuration: m filter
// bits, k hashes, privacy budget eps (per report).
func NewRAPPOR(m, k int, eps float64, seed uint64) *RAPPOR {
	if m < 8 || k < 1 {
		panic("privacy: RAPPOR requires m >= 8, k >= 1")
	}
	if eps <= 0 {
		panic("privacy: eps must be positive")
	}
	// Bit-flip probability for eps-DP per bit group: each value sets k
	// bits, so per-report sensitivity is k (compose across bits). Use
	// the standard RAPPOR parameterization via f = 2/(1+e^{eps/(2k)}).
	f := 2 / (1 + math.Exp(eps/(2*float64(k))))
	return &RAPPOR{m: m, k: k, eps: eps, f: f, seed: seed}
}

// Encode produces a client's noisy report for value. clientSeed
// decorrelates clients.
func (r *RAPPOR) Encode(value string, clientSeed uint64) []bool {
	bits := make([]bool, r.m)
	h1, h2 := hashx.Murmur3_128([]byte(value), r.seed)
	h2 |= 1
	for i := 0; i < r.k; i++ {
		bits[(h1+uint64(i)*h2)%uint64(r.m)] = true
	}
	rng := randx.New(clientSeed)
	for i := range bits {
		u := rng.Float64()
		switch {
		case u < r.f/2:
			bits[i] = true
		case u < r.f:
			bits[i] = false
		}
	}
	return bits
}

// Aggregate sums reports into per-bit counts.
func (r *RAPPOR) Aggregate(reports [][]bool) []float64 {
	counts := make([]float64, r.m)
	for _, rep := range reports {
		for i, b := range rep {
			if b {
				counts[i]++
			}
		}
	}
	return counts
}

// EstimateFrequencies de-biases the aggregated bit counts and solves
// for candidate-value frequencies by least squares over the candidates'
// Bloom signatures (the paper's description of the decode step, with
// ordinary least squares standing in for the lasso used at Google
// scale — adequate for modest candidate sets).
func (r *RAPPOR) EstimateFrequencies(counts []float64, nReports int, candidates []string) map[string]float64 {
	// De-bias each bit: E[count_i] = n·(f/2) + true_i·(1−f), where
	// true_i is the number of clients whose value sets bit i.
	t := make([]float64, r.m)
	for i, c := range counts {
		t[i] = (c - float64(nReports)*r.f/2) / (1 - r.f)
	}
	// Build the design matrix: column j = candidate j's bit signature.
	design := make([][]float64, r.m)
	for i := range design {
		design[i] = make([]float64, len(candidates))
	}
	for j, cand := range candidates {
		h1, h2 := hashx.Murmur3_128([]byte(cand), r.seed)
		h2 |= 1
		for i := 0; i < r.k; i++ {
			design[(h1+uint64(i)*h2)%uint64(r.m)][j] = 1
		}
	}
	x := leastSquares(design, t)
	out := make(map[string]float64, len(candidates))
	for j, cand := range candidates {
		v := x[j]
		if v < 0 {
			v = 0
		}
		out[cand] = v
	}
	return out
}

// F returns the per-bit flip probability.
func (r *RAPPOR) F() float64 { return r.f }

// leastSquares solves min ‖Ax − b‖₂ via the normal equations with
// Gaussian elimination and partial pivoting; candidate sets are small
// (tens to hundreds), so cubic cost is fine.
func leastSquares(a [][]float64, b []float64) []float64 {
	rows := len(a)
	if rows == 0 {
		return nil
	}
	cols := len(a[0])
	// Form AtA and Atb.
	ata := make([][]float64, cols)
	atb := make([]float64, cols)
	for i := range ata {
		ata[i] = make([]float64, cols)
	}
	for r := 0; r < rows; r++ {
		for i := 0; i < cols; i++ {
			if a[r][i] == 0 {
				continue
			}
			atb[i] += a[r][i] * b[r]
			for j := 0; j < cols; j++ {
				ata[i][j] += a[r][i] * a[r][j]
			}
		}
	}
	// Ridge term for numerical stability when candidates collide.
	for i := 0; i < cols; i++ {
		ata[i][i] += 1e-6
	}
	// Gaussian elimination with partial pivoting.
	x := make([]float64, cols)
	for col := 0; col < cols; col++ {
		pivot := col
		for r := col + 1; r < cols; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[pivot][col]) {
				pivot = r
			}
		}
		ata[col], ata[pivot] = ata[pivot], ata[col]
		atb[col], atb[pivot] = atb[pivot], atb[col]
		p := ata[col][col]
		if p == 0 {
			continue
		}
		for r := col + 1; r < cols; r++ {
			factor := ata[r][col] / p
			if factor == 0 {
				continue
			}
			for j := col; j < cols; j++ {
				ata[r][j] -= factor * ata[col][j]
			}
			atb[r] -= factor * atb[col]
		}
	}
	for col := cols - 1; col >= 0; col-- {
		sum := atb[col]
		for j := col + 1; j < cols; j++ {
			sum -= ata[col][j] * x[j]
		}
		if ata[col][col] != 0 {
			x[col] = sum / ata[col][col]
		}
	}
	return x
}
