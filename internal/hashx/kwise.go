package hashx

import "math/bits"

// MersennePrime61 is 2^61-1, the modulus of the polynomial hash family.
// Arithmetic modulo a Mersenne prime reduces with shifts and adds, so
// the family is both provably k-wise independent and fast — the classic
// construction behind the formal guarantees of AMS, Count-Min and Count
// Sketch analyses.
const MersennePrime61 uint64 = (1 << 61) - 1

// KWise is a k-wise independent hash function h(x) = sum_i a_i x^i mod
// (2^61-1), evaluated by Horner's rule. For any k distinct inputs the
// outputs are jointly uniform, which is exactly the independence the
// sketch analyses in the surveyed papers assume.
type KWise struct {
	coeff []uint64 // k coefficients, each < 2^61-1; coeff[k-1] drawn nonzero when possible
}

// NewKWise draws a k-wise independent function from the family using
// the SplitMix64 sequence seeded by seed. k must be >= 1; k = 2 gives
// the pairwise independence most sketches need, k = 4 suffices for AMS
// variance bounds.
func NewKWise(k int, seed uint64) *KWise {
	if k < 1 {
		panic("hashx: KWise requires k >= 1")
	}
	coeff := make([]uint64, k)
	state := seed
	for i := range coeff {
		// Rejection-sample a value uniform in [0, p).
		for {
			state += 0x9e3779b97f4a7c15
			v := Mix64(state) & ((1 << 62) - 1) // 62 random bits
			if v < 2*MersennePrime61 {
				coeff[i] = v % MersennePrime61
				break
			}
		}
	}
	return &KWise{coeff: coeff}
}

// Hash evaluates the polynomial at x (reduced into the field first) and
// returns a value in [0, 2^61-1).
func (h *KWise) Hash(x uint64) uint64 {
	x = modP(x)
	acc := h.coeff[len(h.coeff)-1]
	for i := len(h.coeff) - 2; i >= 0; i-- {
		acc = addP(mulP(acc, x), h.coeff[i])
	}
	return acc
}

// HashRange maps x to a bucket in [0, n) with the standard
// multiply-shift range reduction applied on top of the field value. The
// small modulo bias (at most n/2^61) is negligible for every n used in
// this module.
func (h *KWise) HashRange(x uint64, n int) int {
	return int(h.Hash(x) % uint64(n))
}

// Sign maps x to ±1 using the low bit of the field value; with a 4-wise
// independent family this provides the Rademacher variables required by
// AMS and Count Sketch.
func (h *KWise) Sign(x uint64) int64 {
	if h.Hash(x)&1 == 1 {
		return 1
	}
	return -1
}

// modP reduces a 64-bit value modulo 2^61-1.
func modP(x uint64) uint64 {
	x = (x & MersennePrime61) + (x >> 61)
	if x >= MersennePrime61 {
		x -= MersennePrime61
	}
	return x
}

// addP adds two field elements.
func addP(a, b uint64) uint64 {
	s := a + b // safe: both < 2^61, sum < 2^62
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// mulP multiplies two field elements using a 128-bit intermediate and
// the Mersenne identity 2^64 ≡ 2^3 (mod 2^61-1): for a product
// hi*2^64 + lo, the residue is hi*8 + lo. Since a, b < 2^61 the high
// word satisfies hi < 2^58, so hi*8 < 2^61 needs only one conditional
// subtraction and lo one shift-add reduction.
func mulP(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return addP(modP(lo), modP(hi<<3))
}
