// Package counter implements approximate counting: the Morris counter
// (1977), its base-parameterized refinement, and the Nelson–Yu
// optimal-bounds variant (PODS 2022 best paper). These are the paper's
// canonical example of an asymptotic space reduction — counting n
// events in O(log log n) bits instead of the log₂ n an exact binary
// counter needs (experiment E1).
package counter

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/randx"
)

// Morris is the classic Morris approximate counter. It stores only an
// exponent X and increments it with probability b^(−X), where b is the
// base parameter. The estimate (b^X − 1)/(b − 1) is unbiased; smaller
// b−1 trades space for accuracy — relative standard error is roughly
// √((b−1)/2).
type Morris struct {
	x    uint16 // the stored exponent; 16 bits count past 10^300 for practical bases
	base float64
	p    float64 // cached bump probability base^(-x)
	rng  *randx.RNG
	seed uint64
}

// NewMorris returns a Morris counter with base 2 (the original 1977
// parameterization) seeded for reproducibility.
func NewMorris(seed uint64) *Morris { return NewMorrisBase(2, seed) }

// NewMorrisBase returns a Morris counter with the given base b > 1.
// Bases near 1 (e.g. 1.08) give percent-level accuracy while still
// needing only log_b(n) ≈ O(log n / (b−1))... stored in the exponent —
// the point of E1 is the exponent itself needs just log₂ log_b n bits.
func NewMorrisBase(base float64, seed uint64) *Morris {
	if base <= 1 {
		panic("counter: Morris base must be > 1")
	}
	return &Morris{base: base, p: 1, rng: randx.New(seed), seed: seed}
}

// Increment registers one event: with probability base^(−x) the stored
// exponent is bumped.
func (m *Morris) Increment() {
	if m.rng.Float64() < m.p {
		m.bump()
	}
}

// IncrementN registers n events. It is distributionally identical to n
// calls of Increment but runs in O(exponent transitions) ≈
// O(log n/(base−1)) time by sampling the geometric waiting time until
// the next exponent bump.
func (m *Morris) IncrementN(n uint64) {
	for n > 0 {
		if m.p >= 1 {
			m.bump()
			n--
			continue
		}
		// Events until the next bump: Geometric(p) failures + 1.
		wait := uint64(m.rng.Geometric(m.p)) + 1
		if wait > n {
			return // no bump within the remaining events
		}
		n -= wait
		m.bump()
	}
}

func (m *Morris) bump() {
	if m.x < math.MaxUint16 {
		m.x++
		m.p /= m.base
	}
}

// Count returns the unbiased estimate (b^X − 1)/(b − 1).
func (m *Morris) Count() float64 {
	return (math.Pow(m.base, float64(m.x)) - 1) / (m.base - 1)
}

// Exponent exposes the stored register value; its bit-length is the
// space cost that experiment E1 reports.
func (m *Morris) Exponent() uint16 { return m.x }

// Base returns the base parameter.
func (m *Morris) Base() float64 { return m.base }

// BitsUsed returns the number of bits needed to store the current
// exponent value — the whole state of the sketch.
func (m *Morris) BitsUsed() int {
	if m.x == 0 {
		return 1
	}
	return int(math.Floor(math.Log2(float64(m.x)))) + 1
}

// RelativeStandardError returns the theoretical relative standard
// error ≈ √((b−1)/2) of the estimate, independent of n.
func (m *Morris) RelativeStandardError() float64 {
	return math.Sqrt((m.base - 1) / 2)
}

// Merge folds another Morris counter of the same base into this one.
// Morris counters merge by probabilistic carry: for each of the
// other counter's implied increments at its exponent level we flip the
// appropriate coins. The simple standard approach (merge exponents via
// repeated probabilistic promotion) preserves unbiasedness in
// expectation; we implement the Csűrös-style merge that adds the
// estimated counts and re-encodes.
func (m *Morris) Merge(other *Morris) error {
	if m.base != other.base {
		return fmt.Errorf("%w: morris bases %v vs %v", core.ErrIncompatible, m.base, other.base)
	}
	total := m.Count() + other.Count()
	// Re-encode: find the exponent whose estimate is closest to total,
	// randomizing between the two bracketing exponents to stay unbiased.
	m.x = m.encode(total)
	m.p = math.Pow(m.base, -float64(m.x))
	return nil
}

// encode maps an estimate back to an exponent with randomized rounding
// so that the expected decoded value equals the input.
func (m *Morris) encode(count float64) uint16 {
	if count <= 0 {
		return 0
	}
	// Invert count = (b^x - 1)/(b - 1)  =>  x = log_b(1 + (b-1)count).
	x := math.Log1p((m.base-1)*count) / math.Log(m.base)
	lo := math.Floor(x)
	// Randomized rounding in estimate space: choose hi with the
	// probability that makes the expected estimate exact.
	estLo := (math.Pow(m.base, lo) - 1) / (m.base - 1)
	estHi := (math.Pow(m.base, lo+1) - 1) / (m.base - 1)
	var pHi float64
	if estHi > estLo {
		pHi = (count - estLo) / (estHi - estLo)
	}
	xi := int(lo)
	if m.rng.Float64() < pHi {
		xi++
	}
	if xi < 0 {
		xi = 0
	}
	if xi > math.MaxUint16 {
		xi = math.MaxUint16
	}
	return uint16(xi)
}

// MarshalBinary serializes the counter (the RNG state is reseeded on
// load; estimates are unaffected).
func (m *Morris) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagMorris, 1)
	w.U32(uint32(m.x))
	w.F64(m.base)
	w.U64(m.seed)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a counter serialized by MarshalBinary.
func (m *Morris) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagMorris, 1)
	if err != nil {
		return err
	}
	x := r.U32()
	base := r.F64()
	seed := r.U64()
	if err := r.Done(); err != nil {
		return err
	}
	p := math.Pow(base, -float64(x))
	if !(base > 1) || x > math.MaxUint16 || p == 0 { // p = 0: an exponent no stream reaches, and no coin left to flip
		return fmt.Errorf("%w: morris base %v exponent %d", core.ErrCorrupt, base, x)
	}
	m.x, m.base, m.seed, m.p = uint16(x), base, seed, p
	m.rng = randx.New(seed ^ 0x4d6f7272) // decorrelate post-load coin flips
	return nil
}
