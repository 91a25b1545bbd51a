// Package federated implements the federated-analytics pattern the
// paper describes via its "Introduction to Federated Computation"
// citation [8]: collecting aggregate statistics from a large population
// of distributed clients such that the server only ever sees sums of
// sketches, never an individual's contribution. The paper's framing —
// federated analytics "can be crudely described as being based on
// sketches with privacy" — is exactly this package: linear sketches
// (histograms, Count-Min rows, gradient sketches) summed under
// pairwise-mask secure aggregation, with optional central differential
// privacy on the released aggregate.
//
// The secure-aggregation simulation is faithful to the protocol's
// arithmetic: every ordered client pair (i, j) shares a seed; client i
// adds the pairwise pseudo-random mask and client j subtracts it, so
// the server's sum telescopes to the true total while every individual
// upload is computationally indistinguishable from noise.
package federated

import (
	"fmt"

	"repro/internal/hashx"
	"repro/internal/mergex"
	"repro/internal/randx"
)

// SecureAggregator coordinates one round of pairwise-masked vector
// aggregation over a fixed cohort of clients.
type SecureAggregator struct {
	cohort int
	dim    int
	seed   uint64 // session seed from which pairwise seeds derive
}

// NewSecureAggregator creates an aggregator for a cohort of the given
// size exchanging vectors of the given dimension.
func NewSecureAggregator(cohort, dim int, sessionSeed uint64) *SecureAggregator {
	if cohort < 2 {
		panic("federated: cohort must have at least 2 clients")
	}
	if dim < 1 {
		panic("federated: dimension must be positive")
	}
	return &SecureAggregator{cohort: cohort, dim: dim, seed: sessionSeed}
}

// pairSeed derives the shared seed for the ordered pair (lo, hi).
func (a *SecureAggregator) pairSeed(lo, hi int) uint64 {
	return hashx.HashUint64(uint64(lo)<<32|uint64(hi), a.seed)
}

// Mask returns client id's upload: its private vector plus the
// pairwise masks. The vector is copied; the client's plaintext never
// leaves this call.
func (a *SecureAggregator) Mask(id int, vec []float64) []float64 {
	if id < 0 || id >= a.cohort {
		panic(fmt.Sprintf("federated: client id %d outside cohort %d", id, a.cohort))
	}
	if len(vec) != a.dim {
		panic(fmt.Sprintf("federated: vector dim %d, want %d", len(vec), a.dim))
	}
	out := append([]float64(nil), vec...)
	for other := 0; other < a.cohort; other++ {
		if other == id {
			continue
		}
		lo, hi := id, other
		sign := 1.0
		if lo > hi {
			lo, hi = hi, lo
			sign = -1.0 // the higher-id member subtracts
		}
		rng := randx.New(a.pairSeed(lo, hi))
		for c := 0; c < a.dim; c++ {
			out[c] += sign * rng.Normal() * maskScale
		}
	}
	return out
}

// maskScale makes individual uploads dominated by mask noise.
const maskScale = 1e6

// Aggregate sums the cohort's masked uploads; the pairwise masks
// cancel, leaving the exact sum of private vectors (up to float
// rounding of order maskScale·ε_machine). The vector additions run as
// a parallel tree reduction (mergex.Tree) over copies of the uploads —
// the fan-in is where a real aggregation server spends its time once
// cohorts reach millions. Tree grouping regroups the float additions
// relative to a serial fold, which only moves the existing
// maskScale·ε_machine residue, and pairwise summation actually
// tightens it.
func (a *SecureAggregator) Aggregate(uploads [][]float64) ([]float64, error) {
	if len(uploads) != a.cohort {
		return nil, fmt.Errorf("federated: got %d uploads for cohort of %d (dropout handling requires a recovery round)",
			len(uploads), a.cohort)
	}
	for _, u := range uploads {
		if len(u) != a.dim {
			return nil, fmt.Errorf("federated: upload dim %d, want %d", len(u), a.dim)
		}
	}
	// One contiguous scratch copy so the reduction never mutates the
	// caller's uploads.
	scratch := make([]float64, len(uploads)*a.dim)
	rows := make([][]float64, len(uploads))
	for i, u := range uploads {
		row := scratch[i*a.dim : (i+1)*a.dim]
		copy(row, u)
		rows[i] = row
	}
	return mergex.Tree(rows, func(dst, src []float64) error {
		for c, v := range src {
			dst[c] += v
		}
		return nil
	})
}

// FrequencyRound runs one complete federated frequency-estimation
// round: every client one-hot encodes its value into a shared
// histogram layout, uploads under secure aggregation, and the server
// optionally adds central Laplace noise for (ε, 0)-DP on the release.
type FrequencyRound struct {
	agg    *SecureAggregator
	values []string
	index  map[string]int
}

// NewFrequencyRound creates a round over the given candidate values.
func NewFrequencyRound(cohort int, values []string, sessionSeed uint64) *FrequencyRound {
	if len(values) < 1 {
		panic("federated: need at least one candidate value")
	}
	index := make(map[string]int, len(values))
	for i, v := range values {
		index[v] = i
	}
	return &FrequencyRound{
		agg:    NewSecureAggregator(cohort, len(values), sessionSeed),
		values: append([]string(nil), values...),
		index:  index,
	}
}

// ClientUpload produces client id's masked one-hot upload for its
// private value. Unknown values contribute an all-zero row (plus
// masks), mirroring the out-of-vocabulary behaviour of deployed
// systems.
func (f *FrequencyRound) ClientUpload(id int, value string) []float64 {
	vec := make([]float64, len(f.values))
	if i, ok := f.index[value]; ok {
		vec[i] = 1
	}
	return f.agg.Mask(id, vec)
}

// Tally aggregates the uploads and returns per-value counts. If eps >
// 0, Laplace(1/eps) noise is added to each count before release
// (sensitivity 1: one client changes one cell by 1).
func (f *FrequencyRound) Tally(uploads [][]float64, eps float64, noiseSeed uint64) (map[string]float64, error) {
	sum, err := f.agg.Aggregate(uploads)
	if err != nil {
		return nil, err
	}
	rng := randx.New(noiseSeed)
	out := make(map[string]float64, len(f.values))
	for i, v := range f.values {
		c := sum[i]
		if eps > 0 {
			c += rng.Laplace(1 / eps)
		}
		// Rounding the telescoped masks leaves ~1e-9-scale residue.
		if c < 0 {
			c = 0
		}
		out[v] = c
	}
	return out, nil
}
