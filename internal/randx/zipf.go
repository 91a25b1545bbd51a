package randx

import "math"

// Zipf draws items from a Zipf(α) distribution over {1, …, n}:
// P(X = k) ∝ 1/k^α. Skewed item popularity of exactly this shape is the
// canonical workload for the frequency-estimation experiments (E4, E5)
// — web requests, network flows, word frequencies and ad clicks are all
// well modelled by Zipf with α between 0.8 and 2.
//
// Sampling uses rejection-inversion (Hörmann and Derflinger), which is
// O(1) per draw independent of n and supports α arbitrarily close to
// (or greater than) 1.
type Zipf struct {
	rng           *RNG
	n             float64
	alpha         float64
	oneMinusAlpha float64
	hX0           float64
	hIntegralX1   float64
	hIntegralN    float64
	s             float64
}

// NewZipf returns a Zipf(alpha) sampler over {1, …, n} driven by rng.
// alpha must be positive and not exactly 1 is allowed (the harmonic
// case is handled via the limit form).
func NewZipf(rng *RNG, alpha float64, n int) *Zipf {
	if n < 1 {
		panic("randx: Zipf requires n >= 1")
	}
	if alpha <= 0 {
		panic("randx: Zipf requires alpha > 0")
	}
	z := &Zipf{rng: rng, n: float64(n), alpha: alpha, oneMinusAlpha: 1 - alpha}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(z.n + 0.5)
	z.hX0 = z.hIntegral(0.5)
	z.s = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

// h is the density shape x^-alpha.
func (z *Zipf) h(x float64) float64 { return math.Exp(-z.alpha * math.Log(x)) }

// hIntegral is the antiderivative of h, using the log form when alpha
// is numerically close to 1.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusAlpha*logX) * logX
}

// hIntegralInv inverts hIntegral.
func (z *Zipf) hIntegralInv(x float64) float64 {
	t := x * z.oneMinusAlpha
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with the correct limit at 0.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-x*0.25))
}

// helper2 computes expm1(x)/x with the correct limit at 0.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+x*0.25))
}

// Next draws the next Zipf variate in {1, …, n}.
func (z *Zipf) Next() uint64 {
	for {
		u := z.hIntegralN + z.rng.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.s || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k)
		}
	}
}
