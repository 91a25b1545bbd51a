// Package privacy implements the private-data-analysis layer the paper
// describes as the late-2010s motivation for sketching: randomized
// response (Warner 1965), Google's RAPPOR (Bloom filter + randomized
// response), Apple's count-mean sketch (Count-Min + randomized
// response), and the Laplace/Gaussian mechanisms of differential
// privacy applied to linear sketches.
//
// The paper's thesis — "compact representations formed by sketch
// algorithms tend to mix and concentrate the information from many
// individuals, making the perturbations due to privacy less disruptive"
// — is exactly what experiment E15 measures: estimation error as a
// function of the privacy budget ε across population sizes.
package privacy

import (
	"math"

	"repro/internal/randx"
)

// RandomizedResponse perturbs a single bit with the classic Warner
// mechanism: report truthfully with probability e^ε/(1+e^ε). The
// mechanism is ε-differentially private, and the aggregate frequency is
// recoverable by inverting the known flip probability.
type RandomizedResponse struct {
	pTruth float64
	eps    float64
	rng    *randx.RNG
}

// NewRandomizedResponse creates a mechanism with privacy budget eps.
func NewRandomizedResponse(eps float64, seed uint64) *RandomizedResponse {
	if eps <= 0 {
		panic("privacy: eps must be positive")
	}
	e := math.Exp(eps)
	return &RandomizedResponse{pTruth: e / (1 + e), eps: eps, rng: randx.New(seed)}
}

// Perturb returns the (possibly flipped) bit.
func (rr *RandomizedResponse) Perturb(bit bool) bool {
	if rr.rng.Float64() < rr.pTruth {
		return bit
	}
	return !bit
}

// Debias converts an observed count of positive reports out of n into
// an unbiased estimate of the true positive count: inverting
// E[observed] = true·p + (n−true)·(1−p).
func (rr *RandomizedResponse) Debias(observed, n float64) float64 {
	p := rr.pTruth
	return (observed - n*(1-p)) / (2*p - 1)
}

// LaplaceMechanism adds Laplace(sensitivity/ε) noise to a numeric
// query answer, the canonical ε-DP primitive.
type LaplaceMechanism struct {
	scale float64
	eps   float64
	rng   *randx.RNG
}

// NewLaplaceMechanism creates a mechanism for queries with the given L1
// sensitivity.
func NewLaplaceMechanism(eps, sensitivity float64, seed uint64) *LaplaceMechanism {
	if eps <= 0 || sensitivity <= 0 {
		panic("privacy: eps and sensitivity must be positive")
	}
	return &LaplaceMechanism{scale: sensitivity / eps, eps: eps, rng: randx.New(seed)}
}

// Release returns the noised value.
func (m *LaplaceMechanism) Release(trueValue float64) float64 {
	return trueValue + m.rng.Laplace(m.scale)
}

// GaussianMechanism adds N(0, σ²) noise calibrated for (ε, δ)-DP with
// the analytic σ = sensitivity·√(2 ln(1.25/δ))/ε.
type GaussianMechanism struct {
	sigma float64
	rng   *randx.RNG
}

// NewGaussianMechanism creates a mechanism for queries with the given
// L2 sensitivity.
func NewGaussianMechanism(eps, delta, sensitivity float64, seed uint64) *GaussianMechanism {
	if eps <= 0 || delta <= 0 || delta >= 1 || sensitivity <= 0 {
		panic("privacy: invalid (eps, delta, sensitivity)")
	}
	sigma := sensitivity * math.Sqrt(2*math.Log(1.25/delta)) / eps
	return &GaussianMechanism{sigma: sigma, rng: randx.New(seed)}
}

// Release returns the noised value.
func (m *GaussianMechanism) Release(trueValue float64) float64 {
	return trueValue + m.rng.Normal()*m.sigma
}
