package counter

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// NelsonYu is an approximate counter in the spirit of "Optimal Bounds
// for Approximate Counting" (Nelson & Yu, PODS 2022). The classical
// Morris analysis needs O(log log n + log 1/ε + log log 1/δ) bits to
// return a (1+ε)-approximation with probability 1−δ; Nelson and Yu
// show the log(1/ε) and log log(1/δ) interaction can be made optimal.
//
// This implementation realizes the practical construction the paper's
// improvement is built around: a Morris-style counter with base
// b = 1 + Θ(ε²δ) chosen from the target (ε, δ), plus the median of
// independent repetitions to drive the failure probability down at the
// optimal O(log 1/δ) multiplicative cost. It exposes the same
// Increment/Count API as Morris so experiment E1 can compare the two
// at equal space.
type NelsonYu struct {
	counters []*Morris
	eps      float64
	delta    float64
}

// NewNelsonYu returns a counter targeting relative error eps with
// failure probability delta.
func NewNelsonYu(eps, delta float64, seed uint64) *NelsonYu {
	if !(eps > 0 && eps < 1) || !(delta > 0 && delta < 1) {
		panic("counter: NelsonYu requires eps, delta in (0,1)")
	}
	// Each Morris copy with base 1+2ε² has standard error ≈ ε, giving
	// constant failure probability by Chebyshev; the median of
	// r = O(log 1/δ) copies amplifies to 1−δ.
	reps := int(math.Ceil(18 * math.Log(1/delta)))
	if reps < 1 {
		reps = 1
	}
	if reps%2 == 0 {
		reps++
	}
	base := 1 + 2*eps*eps
	counters := make([]*Morris, reps)
	for i := range counters {
		counters[i] = NewMorrisBase(base, seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	return &NelsonYu{counters: counters, eps: eps, delta: delta}
}

// IncrementN registers n events in every repetition using the
// geometric fast-forward (see Morris.IncrementN).
func (c *NelsonYu) IncrementN(n uint64) {
	for _, m := range c.counters {
		m.IncrementN(n)
	}
}

// Count returns the median estimate across repetitions.
func (c *NelsonYu) Count() float64 {
	ests := make([]float64, len(c.counters))
	for i, m := range c.counters {
		ests[i] = m.Count()
	}
	return core.Median(ests)
}

// Repetitions returns the number of independent Morris copies.
func (c *NelsonYu) Repetitions() int { return len(c.counters) }

// BitsUsed sums the exponent bit-lengths across repetitions — the total
// state of the sketch.
func (c *NelsonYu) BitsUsed() int {
	total := 0
	for _, m := range c.counters {
		total += m.BitsUsed()
	}
	return total
}

// Merge combines with another NelsonYu counter of identical shape.
func (c *NelsonYu) Merge(other *NelsonYu) error {
	if len(c.counters) != len(other.counters) || c.eps != other.eps {
		return fmt.Errorf("%w: nelson-yu shape mismatch", core.ErrIncompatible)
	}
	for i := range c.counters {
		if err := c.counters[i].Merge(other.counters[i]); err != nil {
			return err
		}
	}
	return nil
}

// MarshalBinary serializes the counter.
func (c *NelsonYu) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagNelsonYu, 1)
	w.F64(c.eps)
	w.F64(c.delta)
	w.U32(uint32(len(c.counters)))
	for _, m := range c.counters {
		b, err := m.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.BytesField(b)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a counter serialized by MarshalBinary.
func (c *NelsonYu) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagNelsonYu, 1)
	if err != nil {
		return err
	}
	eps := r.F64()
	delta := r.F64()
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if n < 1 || n > 1<<20 || !(eps > 0 && eps < 1 && delta > 0 && delta < 1) { // not a number is not in (0,1) either
		return fmt.Errorf("%w: nelson-yu eps=%v delta=%v repetitions=%d", core.ErrCorrupt, eps, delta, n)
	}
	counters := make([]*Morris, n)
	for i := range counters {
		var m Morris
		if err := m.UnmarshalBinary(r.BytesField()); err != nil {
			return err
		}
		counters[i] = &m
	}
	if err := r.Done(); err != nil {
		return err
	}
	c.eps, c.delta, c.counters = eps, delta, counters
	return nil
}

// ExactBits is the exact binary-counter baseline for E1: the number of
// bits an exact counter needs to represent n.
func ExactBits(n uint64) int {
	if n == 0 {
		return 1
	}
	bits := 0
	for n > 0 {
		bits++
		n >>= 1
	}
	return bits
}
