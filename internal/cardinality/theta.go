package cardinality

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/hashx"
)

// Theta is a theta sketch — the centerpiece of the Yahoo!/Apache
// DataSketches project the paper credits with easing adoption (§2).
// It generalizes KMV: keep every hash value below a threshold θ
// (initially 1, i.e. everything), and when the retained set exceeds k,
// lower θ to the (k+1)-th smallest value and discard above it. The
// estimate is |retained|/θ (hashes scaled to (0,1)).
//
// Unlike plain estimators, theta sketches form an algebra: Union,
// Intersect and AnotB return *sketches*, so arbitrary set expressions
// compose before estimating — the "slice and dice" machinery behind
// audience overlap queries.
type Theta struct {
	k     int
	seed  uint64
	theta uint64 // exclusive upper bound on retained hashes
	vals  []uint64
	dirty bool // vals may be unsorted after batch operations
}

const thetaMax = math.MaxUint64

// NewTheta creates a theta sketch with nominal capacity k (relative
// standard error ≈ 1/√(k−1) once sampling starts).
func NewTheta(k int, seed uint64) *Theta {
	if k < 8 {
		panic("cardinality: theta sketch requires k >= 8")
	}
	return &Theta{k: k, seed: seed, theta: thetaMax}
}

// Add inserts an item.
func (t *Theta) Add(item []byte) { t.addHash(hashx.XXHash64(item, t.seed)) }

// AddUint64 inserts an integer item without allocation.
func (t *Theta) AddUint64(v uint64) { t.addHash(hashx.HashUint64(v, t.seed)) }

// Update implements core.Updater.
func (t *Theta) Update(item []byte) { t.Add(item) }

func (t *Theta) addHash(h uint64) {
	if h >= t.theta {
		return
	}
	t.ensureSorted()
	i := sort.Search(len(t.vals), func(i int) bool { return t.vals[i] >= h })
	if i < len(t.vals) && t.vals[i] == h {
		return
	}
	t.vals = append(t.vals, 0)
	copy(t.vals[i+1:], t.vals[i:])
	t.vals[i] = h
	if len(t.vals) > t.k {
		// Lower theta to the (k+1)-th smallest and drop it.
		t.theta = t.vals[t.k]
		t.vals = t.vals[:t.k]
	}
}

func (t *Theta) ensureSorted() {
	if t.dirty {
		sort.Slice(t.vals, func(i, j int) bool { return t.vals[i] < t.vals[j] })
		t.dirty = false
	}
}

// Estimate returns the distinct-count estimate |retained|/θ.
func (t *Theta) Estimate() float64 {
	if t.theta == thetaMax {
		return float64(len(t.vals)) // exact mode
	}
	frac := float64(t.theta) / float64(thetaMax)
	return float64(len(t.vals)) / frac
}

// IsEstimationMode reports whether sampling has started (θ < 1).
func (t *Theta) IsEstimationMode() bool { return t.theta != thetaMax }

// Retained returns the number of retained hash values.
func (t *Theta) Retained() int { return len(t.vals) }

// K returns the nominal capacity.
func (t *Theta) K() int { return t.k }

// StandardError returns the relative standard error ≈ 1/√(k−1) in
// estimation mode (0 in exact mode).
func (t *Theta) StandardError() float64 {
	if !t.IsEstimationMode() {
		return 0
	}
	return 1 / math.Sqrt(float64(t.k-1))
}

// SizeBytes returns the retained-hash storage size.
func (t *Theta) SizeBytes() int { return len(t.vals) * 8 }

func (t *Theta) compatible(other *Theta) error {
	if t.seed != other.seed {
		return fmt.Errorf("%w: theta sketch seeds differ", core.ErrIncompatible)
	}
	return nil
}

// Union returns a new sketch representing the set union. The result's
// θ is the minimum of the inputs'; capacity is the receiver's k.
func (t *Theta) Union(other *Theta) (*Theta, error) {
	if err := t.compatible(other); err != nil {
		return nil, err
	}
	out := NewTheta(t.k, t.seed)
	out.theta = t.theta
	if other.theta < out.theta {
		out.theta = other.theta
	}
	t.ensureSorted()
	other.ensureSorted()
	seen := make(map[uint64]struct{}, len(t.vals)+len(other.vals))
	for _, v := range t.vals {
		if v < out.theta {
			seen[v] = struct{}{}
		}
	}
	for _, v := range other.vals {
		if v < out.theta {
			seen[v] = struct{}{}
		}
	}
	out.vals = make([]uint64, 0, len(seen))
	for v := range seen {
		out.vals = append(out.vals, v)
	}
	sort.Slice(out.vals, func(i, j int) bool { return out.vals[i] < out.vals[j] })
	if len(out.vals) > out.k {
		out.theta = out.vals[out.k]
		out.vals = out.vals[:out.k]
	}
	return out, nil
}

// Intersect returns a new sketch representing the set intersection:
// retained hashes present in both inputs, θ = min(θ_a, θ_b).
func (t *Theta) Intersect(other *Theta) (*Theta, error) {
	if err := t.compatible(other); err != nil {
		return nil, err
	}
	out := NewTheta(t.k, t.seed)
	out.theta = t.theta
	if other.theta < out.theta {
		out.theta = other.theta
	}
	t.ensureSorted()
	other.ensureSorted()
	inOther := make(map[uint64]struct{}, len(other.vals))
	for _, v := range other.vals {
		inOther[v] = struct{}{}
	}
	for _, v := range t.vals {
		if v >= out.theta {
			continue
		}
		if _, ok := inOther[v]; ok {
			out.vals = append(out.vals, v)
		}
	}
	return out, nil
}

// AnotB returns a new sketch representing the set difference A \ B.
func (t *Theta) AnotB(other *Theta) (*Theta, error) {
	if err := t.compatible(other); err != nil {
		return nil, err
	}
	out := NewTheta(t.k, t.seed)
	out.theta = t.theta
	if other.theta < out.theta {
		out.theta = other.theta
	}
	t.ensureSorted()
	other.ensureSorted()
	inOther := make(map[uint64]struct{}, len(other.vals))
	for _, v := range other.vals {
		inOther[v] = struct{}{}
	}
	for _, v := range t.vals {
		if v >= out.theta {
			continue
		}
		if _, ok := inOther[v]; !ok {
			out.vals = append(out.vals, v)
		}
	}
	return out, nil
}

// Merge folds another sketch into this one (in-place union), making
// Theta a mergeable summary like its siblings.
func (t *Theta) Merge(other *Theta) error {
	u, err := t.Union(other)
	if err != nil {
		return err
	}
	*t = *u
	return nil
}

// MarshalBinary serializes the sketch.
func (t *Theta) MarshalBinary() ([]byte, error) {
	t.ensureSorted()
	w := core.NewWriter(core.TagTheta, 1)
	w.U32(uint32(t.k))
	w.U64(t.seed)
	w.U64(t.theta)
	w.U64Slice(t.vals)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (t *Theta) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagTheta, 1)
	if err != nil {
		return err
	}
	k := int(r.U32())
	seed := r.U64()
	theta := r.U64()
	vals := r.U64Slice()
	if err := r.Done(); err != nil {
		return err
	}
	if k < 8 || len(vals) > k {
		return fmt.Errorf("%w: theta sketch k=%d retained=%d", core.ErrCorrupt, k, len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			return fmt.Errorf("%w: theta sketch values not strictly sorted", core.ErrCorrupt)
		}
	}
	for _, v := range vals {
		if v >= theta {
			return fmt.Errorf("%w: theta sketch retained value above theta", core.ErrCorrupt)
		}
	}
	t.k, t.seed, t.theta, t.vals, t.dirty = k, seed, theta, vals, false
	return nil
}
