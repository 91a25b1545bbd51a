package quantile

import (
	"math"
	"sort"
)

// Exact retains every value and answers exact quantiles — the ground
// truth against which the experiment harness scores every sketch, and
// the "just use the data warehouse" baseline the paper's §3 advertising
// discussion says eventually displaced sketches when hardware caught
// up. Its space is Θ(n); the whole point of the package is that the
// other summaries are sublinear.
type Exact struct {
	vals   []float64
	sorted bool
}

// NewExact creates an empty exact summary.
func NewExact() *Exact { return &Exact{} }

// Add inserts a value.
func (s *Exact) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Quantile returns the exact q-quantile (nearest-rank rule on the
// sorted data).
func (s *Exact) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q * float64(len(s.vals)-1))
	return s.vals[idx]
}

// N returns the number of values inserted.
func (s *Exact) N() uint64 { return uint64(len(s.vals)) }

// SizeBytes returns the memory footprint — Θ(n), the baseline cost.
func (s *Exact) SizeBytes() int { return len(s.vals) * 8 }

func (s *Exact) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}
