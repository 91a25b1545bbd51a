package quantile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/randx"
)

// MRL is the Manku–Rajagopalan–Lindsay quantile algorithm (SIGMOD
// 1998), which adapted the Munro–Paterson multi-pass selection scheme
// to one streaming pass: maintain b buffers of capacity k; when all are
// full, COLLAPSE merges the two lowest-weight buffers into one by
// taking every other element of their weighted merge (randomized
// offset), doubling the weight. It is the historical midpoint of the
// paper's quantile lineage between Munro–Paterson (1980) and GK (2001),
// and the direct structural ancestor of KLL's compactors.
type MRL struct {
	k       int
	buffers []mrlBuffer
	active  int // index of the buffer currently being filled, -1 if none
	n       uint64
	rng     *randx.RNG
	seed    uint64
}

type mrlBuffer struct {
	vals   []float64
	weight uint64
	full   bool
}

// NewMRL creates an MRL summary with b buffers of capacity k each.
func NewMRL(b, k int, seed uint64) *MRL {
	if b < 2 || k < 2 {
		panic("quantile: MRL requires b >= 2 buffers of k >= 2")
	}
	buffers := make([]mrlBuffer, b)
	for i := range buffers {
		buffers[i].vals = make([]float64, 0, k)
		buffers[i].weight = 1
	}
	return &MRL{k: k, buffers: buffers, active: 0, rng: randx.New(seed), seed: seed}
}

// Add inserts a value.
func (s *MRL) Add(v float64) {
	s.n++
	if s.active < 0 || s.buffers[s.active].full {
		s.active = s.findEmpty()
		if s.active < 0 {
			s.collapse()
			s.active = s.findEmpty()
		}
	}
	b := &s.buffers[s.active]
	b.vals = append(b.vals, v)
	if len(b.vals) == s.k {
		sort.Float64s(b.vals)
		b.full = true
		s.active = -1
	}
}

func (s *MRL) findEmpty() int {
	for i := range s.buffers {
		if !s.buffers[i].full && len(s.buffers[i].vals) < s.k {
			return i
		}
	}
	return -1
}

// collapse merges the two lowest-weight full buffers.
func (s *MRL) collapse() {
	// Select the two full buffers with the smallest weights.
	i1, i2 := -1, -1
	for i := range s.buffers {
		if !s.buffers[i].full {
			continue
		}
		switch {
		case i1 < 0 || s.buffers[i].weight < s.buffers[i1].weight:
			i2 = i1
			i1 = i
		case i2 < 0 || s.buffers[i].weight < s.buffers[i2].weight:
			i2 = i
		}
	}
	if i1 < 0 || i2 < 0 {
		return
	}
	a, b := &s.buffers[i1], &s.buffers[i2]
	// Weighted merge: expand conceptually, sample every (wa+wb)-th
	// element with random start. Implemented by walking the merge with
	// weight accumulation.
	merged := make([]weighted, 0, len(a.vals)+len(b.vals))
	ai, bi := 0, 0
	for ai < len(a.vals) || bi < len(b.vals) {
		if bi >= len(b.vals) || (ai < len(a.vals) && a.vals[ai] <= b.vals[bi]) {
			merged = append(merged, weighted{a.vals[ai], a.weight})
			ai++
		} else {
			merged = append(merged, weighted{b.vals[bi], b.weight})
			bi++
		}
	}
	newWeight := a.weight + b.weight
	stride := newWeight
	offset := uint64(s.rng.Intn(int(stride))) + 1 // position within each stride to sample
	out := make([]float64, 0, s.k)
	var pos uint64 // cumulative weight consumed
	next := offset
	for _, m := range merged {
		for taken := uint64(0); taken < m.w; taken++ {
			pos++
			if pos == next {
				out = append(out, m.v)
				next += stride
			}
		}
	}
	a.vals = out
	a.weight = newWeight
	a.full = true
	b.vals = b.vals[:0]
	b.weight = 1
	b.full = false
}

// Quantile returns an approximate q-quantile.
func (s *MRL) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	all := make([]weighted, 0, s.RetainedItems())
	var totalW uint64
	for i := range s.buffers {
		b := &s.buffers[i]
		for _, v := range b.vals {
			all = append(all, weighted{v, b.weight})
			totalW += b.weight
		}
	}
	if len(all) == 0 {
		return math.NaN()
	}
	if v, ok := weightedQuantile(all, q, totalW); ok {
		return v
	}
	return all[len(all)-1].v // q is not a number
}

// N returns the number of inserted values.
func (s *MRL) N() uint64 { return s.n }

// RetainedItems returns the number of stored values.
func (s *MRL) RetainedItems() int {
	total := 0
	for i := range s.buffers {
		total += len(s.buffers[i].vals)
	}
	return total
}

// SizeBytes returns the approximate memory footprint.
func (s *MRL) SizeBytes() int { return s.RetainedItems() * 8 }

// MarshalBinary serializes the summary.
func (s *MRL) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagMRL, 1)
	w.U32(uint32(s.k))
	w.U32(uint32(len(s.buffers)))
	w.U64(s.seed)
	w.U64(s.n)
	w.I64(int64(s.active))
	for i := range s.buffers {
		b := &s.buffers[i]
		w.U64(b.weight)
		if b.full {
			w.U8(1)
		} else {
			w.U8(0)
		}
		w.F64Slice(b.vals)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a summary serialized by MarshalBinary.
func (s *MRL) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagMRL, 1)
	if err != nil {
		return err
	}
	k := int(r.U32())
	nb := int(r.U32())
	seed := r.U64()
	n := r.U64()
	active := int(r.I64())
	if r.Err() != nil {
		return r.Err()
	}
	if k < 2 || nb < 2 || nb > 1<<20 || active < -1 || active >= nb {
		return fmt.Errorf("%w: MRL params", core.ErrCorrupt)
	}
	buffers := make([]mrlBuffer, nb)
	for i := range buffers {
		buffers[i].weight = r.U64()
		buffers[i].full = r.U8() == 1
		buffers[i].vals = r.F64Slice()
		if buffers[i].vals == nil {
			// No capacity hint: k is untrusted here and a corrupt value
			// would pre-allocate gigabytes per empty buffer.
			buffers[i].vals = []float64{}
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	s.k, s.buffers, s.active, s.n, s.seed = k, buffers, active, n, seed
	s.rng = randx.New(seed ^ 0x4d524c)
	return nil
}
