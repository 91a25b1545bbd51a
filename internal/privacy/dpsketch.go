package privacy

import (
	"fmt"
	"math"

	"repro/internal/frequency"
	"repro/internal/randx"
)

// DPCountMin is a differentially private Count-Min sketch in the style
// of Zhao et al. (NeurIPS 2022), the paper's citation for the claim
// that sketch representations absorb privacy noise gracefully: after
// building a normal Count-Min sketch, each counter is released with
// Laplace noise of scale depth/ε (one stream element touches depth
// counters, so the sketch's L1 sensitivity is depth). Point queries
// then behave like ordinary Count-Min plus bounded noise — the error
// contribution of privacy is O(depth/ε) per counter, independent of the
// stream length, which is why the relative cost of privacy shrinks as
// data grows (experiment E15).
type DPCountMin struct {
	sketch *frequency.CountMin
	eps    float64
	noised [][]float64 // per-counter Laplace noise, nil until Release
	n      uint64
}

// NewDPCountMin wraps a fresh Count-Min sketch of the given shape.
func NewDPCountMin(width, depth int, eps float64, seed uint64) *DPCountMin {
	if eps <= 0 {
		panic("privacy: eps must be positive")
	}
	return &DPCountMin{sketch: frequency.NewCountMin(width, depth, seed), eps: eps}
}

// AddString registers one occurrence of item (pre-release phase).
func (d *DPCountMin) AddString(item string) {
	if d.noised != nil {
		panic("privacy: cannot update a released DP sketch")
	}
	d.sketch.AddString(item)
	d.n++
}

// Release freezes the sketch and draws Laplace(depth/ε) noise for every
// counter; queries afterwards see counter + noise. Further updates
// panic — releasing twice is a privacy-budget bug this API makes
// impossible.
func (d *DPCountMin) Release(seed uint64) {
	if d.noised != nil {
		return
	}
	rng := randx.New(seed)
	depth := d.sketch.Depth()
	width := d.sketch.Width()
	scale := float64(depth) / d.eps
	d.noised = make([][]float64, depth)
	for r := 0; r < depth; r++ {
		d.noised[r] = make([]float64, width)
		for j := 0; j < width; j++ {
			d.noised[r][j] = rng.Laplace(scale)
		}
	}
}

// EstimateString returns the private point-query estimate: the minimum
// over rows of (counter + noise), clamped at zero.
func (d *DPCountMin) EstimateString(item string) (float64, error) {
	if d.noised == nil {
		return 0, fmt.Errorf("privacy: sketch not yet released")
	}
	ests, buckets := d.sketch.EstimatePerRow([]byte(item))
	best := math.Inf(1)
	for r, e := range ests {
		v := float64(e) + d.noised[r][buckets[r]]
		if v < best {
			best = v
		}
	}
	if best < 0 {
		best = 0
	}
	return best, nil
}
