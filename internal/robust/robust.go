// Package robust implements the sketch-switching technique from "A
// Framework for Adversarially Robust Streaming Algorithms"
// (Ben-Eliezer, Jayaram, Woodruff, Yogev — PODS 2020 best paper).
//
// A plain randomized sketch (AMS, HLL, …) assumes its input is fixed
// before the randomness is drawn. An *adaptive* adversary who sees each
// query answer can steer later updates against the realized randomness
// and drive the estimate arbitrarily far from the truth. Sketch
// switching defeats this by maintaining λ independent copies and
// exposing each copy's randomness for only one output value: the
// wrapper keeps returning its last answer until the *current* copy's
// estimate drifts by a (1+ε) factor, then advances to a fresh copy and
// re-bases the answer. For monotone quantities such as insertion-only
// F₂, the answer changes only O(ε⁻¹·log n) times, so that many copies
// suffice for the whole stream. Experiment E13 mounts the adaptive
// attack against a naive sketch and the wrapper side by side.
package robust

import (
	"math"

	"repro/internal/ams"
)

// F2 is an adversarially robust F₂ estimator wrapping λ independent
// AMS sketches with sketch switching.
type F2 struct {
	copies []*ams.Sketch
	cur    int
	last   float64 // last revealed output; NaN until the first query
	eps    float64
	burned bool // true when every copy's randomness has been exposed
}

// NewF2 creates a robust estimator with switching threshold eps and
// lambda independent copies, each a groups×perGroup AMS sketch.
func NewF2(eps float64, lambda, groups, perGroup int, seed uint64) *F2 {
	if !(eps > 0 && eps < 1) {
		panic("robust: eps must be in (0,1)")
	}
	if lambda < 1 {
		panic("robust: lambda must be >= 1")
	}
	copies := make([]*ams.Sketch, lambda)
	for i := range copies {
		copies[i] = ams.New(groups, perGroup, seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	return &F2{copies: copies, eps: eps, last: math.NaN()}
}

// LambdaFor returns the number of copies needed for an insertion-only
// stream of total squared norm up to maxF2: the flip number
// ⌈log_{1+ε}(maxF2)⌉ + 1.
func LambdaFor(eps, maxF2 float64) int {
	if maxF2 < 2 {
		maxF2 = 2
	}
	return int(math.Ceil(math.Log(maxF2)/math.Log1p(eps))) + 1
}

// AddUint64 adds weight to item across every copy (the adversary's
// updates must reach all copies, revealed or not).
func (r *F2) AddUint64(item uint64, weight int64) {
	for _, c := range r.copies {
		c.AddUint64(item, weight)
	}
}

// Update adds one occurrence of a byte-slice item.
func (r *F2) Update(item []byte) {
	for _, c := range r.copies {
		c.Update(item)
	}
}

// Estimate returns the robust F₂ estimate. The output only changes when
// the current (unexposed) copy's estimate has moved a (1+ε) factor from
// the last output, at which point the wrapper advances to the next
// fresh copy.
func (r *F2) Estimate() float64 {
	if math.IsNaN(r.last) {
		r.last = r.copies[r.cur].F2()
		return r.last
	}
	cur := r.copies[r.cur].F2()
	lo, hi := r.last/(1+r.eps), r.last*(1+r.eps)
	if cur >= lo && cur <= hi {
		return r.last
	}
	// Output must move: burn the current copy and re-base on the next.
	// Once all copies are exposed the output freezes — the caller sized
	// λ below the stream's flip number and Exhausted() reports it.
	if r.cur+1 == len(r.copies) {
		r.burned = true
		return r.last
	}
	r.cur++
	r.last = r.copies[r.cur].F2()
	return r.last
}

// SizeBytes returns the total memory across copies — the price of
// robustness that E13 reports alongside the accuracy.
func (r *F2) SizeBytes() int {
	total := 0
	for _, c := range r.copies {
		total += c.SizeBytes()
	}
	return total
}
