package frequency

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hashx"
)

// CountSketch is the Charikar–Chen–Farach-Colton sketch: like Count-Min
// but each update is multiplied by a ±1 (Rademacher) sign hash, and the
// point query takes the median over rows of signed counters. Estimates
// are unbiased with additive error O(ε‖f‖₂) — the L2 guarantee that
// beats Count-Min's L1 bound on skewed data (experiment E4). The same
// structure later became the basis of sparse Johnson–Lindenstrauss
// transforms and of the FetchSGD gradient compressor (internal/jl,
// internal/fetchsgd).
//
// Which cell a row reads is the Layout's business; the sign is this
// type's. In Derived and Fused layouts row r's sign is bit r of
// Mix64(DeriveH2(h)) (remixed so the forced-odd stride bit never biases
// a sign); in KWise it is a per-row 4-wise polynomial, the construction
// behind the L2 guarantee proofs.
type CountSketch struct {
	layout Layout
	cells  []int64        // one flat table in the layout's cell order
	sign   []*hashx.KWise // KWise mode: 4-wise sign hashes, one per row
	n      uint64
}

// csMaxSignedDepth caps the depth of layouts whose signs come from one
// 64-bit word, one bit per row: deeper sketches would silently reuse
// sign bits across rows.
const csMaxSignedDepth = 63

// NewCountSketch creates a width×depth Count Sketch in the Derived
// layout: the shorthand for NewCountSketchLayout.
func NewCountSketch(width, depth int, seed uint64) *CountSketch {
	return NewCountSketchLayout(Layout{Width: width, Depth: depth, Seed: seed})
}

// NewCountSketchLayout creates an empty sketch over l. Depth should be
// odd so the median is unambiguous; even depths are raised by one. It
// is capped at 63 after the rounding unless the layout is KWise.
func NewCountSketchLayout(l Layout) *CountSketch {
	if l.Depth > 0 {
		l.Depth |= 1
	}
	c, err := newCountSketch(mustBuild(l, true))
	if err != nil {
		panic("frequency: " + err.Error())
	}
	c.cells = make([]int64, c.layout.Len())
	return c
}

// signedDepth refuses a depth whose signs one word cannot supply.
func signedDepth(l Layout) error {
	if l.Mode != KWise && l.Depth > csMaxSignedDepth {
		return fmt.Errorf("count sketch depth %d must be <= %d (signs draw one bit per row from a 64-bit word)", l.Depth, csMaxSignedDepth)
	}
	return nil
}

// newCountSketch draws the sign rows for a built signed layout, taken
// as it stands (decoded historical payloads have even depths); the
// caller supplies the table.
func newCountSketch(l Layout) (*CountSketch, error) {
	if err := signedDepth(l); err != nil {
		return nil, err
	}
	c := &CountSketch{layout: l}
	if l.Mode != KWise {
		return c, nil
	}
	// The odd sub-seeds; the layout's bucket rows took the even ones.
	seeds := hashx.SeedSequence(l.Seed, 2*l.Depth)
	c.sign = make([]*hashx.KWise, l.Depth)
	for r := range c.sign {
		c.sign[r] = hashx.NewKWise(4, seeds[2*r+1])
	}
	return c, nil
}

// signWord is the word whose bit r is row r's sign in the Derived and
// Fused layouts. Callers turn a sign into a mask m — 0 for +1, -1 for
// −1 — so that (v^m)-m is ±v without a branch: a random sign branch
// would mispredict half the time, one stall per row.
func signWord(h uint64) uint64 { return hashx.Mix64(hashx.DeriveH2(h)) }

// Add adds weight (may be negative: turnstile streams are supported) to
// the count of item: one hash pass, all row buckets and signs derived
// from it. Add(item, w) is exactly equivalent to
// AddHash(hashx.XXHash64(item, seed), w) in every layout.
func (c *CountSketch) Add(item []byte, weight int64) {
	c.AddHash(hashx.XXHash64(item, c.layout.Seed), weight)
}

// AddUint64 adds weight to an integer item's count. Equivalent to
// AddHash(hashx.HashUint64(item, seed), weight).
func (c *CountSketch) AddUint64(item uint64, weight int64) {
	c.AddHash(hashx.HashUint64(item, c.layout.Seed), weight)
}

// Update implements core.Updater (weight 1).
func (c *CountSketch) Update(item []byte) { c.Add(item, 1) }

// AddHash folds a pre-hashed item into the sketch. Every entry point —
// Add, AddUint64, AddString and the estimate paths — routes through the
// same h, so pipelines that pre-hash with hashx.XXHash64 (or
// hashx.HashUint64) can mix AddHash writes with Estimate(item) reads.
func (c *CountSketch) AddHash(h uint64, weight int64) {
	var buf [StackDepth]uint32
	word, kwise, cells := signWord(h), c.sign, c.cells
	for r, j := range c.layout.Cells(h, buf[:]) {
		m := -int64(word >> r & 1)
		if kwise != nil {
			m = kwise[r].Sign(h) >> 1 // ±1 → 0, -1
		}
		cells[j] += (weight ^ m) - m
	}
	if weight >= 0 {
		c.n += uint64(weight)
	} else {
		c.n += uint64(-weight)
	}
}

// MedianCells is the Count-Sketch point estimate over an item's
// sign-corrected cells (AppendCells). It reorders cells.
func MedianCells(cells []int64) int64 {
	if len(cells)%2 == 1 {
		return medianOddInPlace(cells)
	}
	// Only decoded historical payloads have an even depth; constructors
	// round it odd.
	return int64(core.MedianInt64(cells))
}

// medianOddInPlace insertion-sorts xs (odd length) and returns the
// middle element: core.MedianInt64 for odd-length input without the
// copy, the sort.Slice closure, or the round trip through float64.
func medianOddInPlace(xs []int64) int64 {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
	return xs[len(xs)/2]
}

// Estimate returns the unbiased point-query estimate (median over rows
// of sign-corrected counters). Unlike Count-Min it can under- as well
// as overestimate.
func (c *CountSketch) Estimate(item []byte) int64 {
	return c.estimateHash(hashx.XXHash64(item, c.layout.Seed))
}

// EstimateUint64 returns the point-query estimate for an integer item.
func (c *CountSketch) EstimateUint64(item uint64) int64 {
	return c.estimateHash(hashx.HashUint64(item, c.layout.Seed))
}

func (c *CountSketch) estimateHash(h uint64) int64 {
	// Typical depths fit the stack buffer, keeping the query path
	// allocation-free like the add path.
	var buf [StackDepth]int64
	return MedianCells(c.appendCells(buf[:0], h))
}

// AppendCells appends the depth sign-corrected counters a point query
// for item reads — sign_r(item)·cell_r(item), in row order — to dst.
// Estimate is their median (MedianCells), and because Merge is
// cell-wise addition and a row's sign is fixed per item, the same cells
// summed across sketches are exactly the merged sketch's: they are all
// a remote reader needs to answer the query.
func (c *CountSketch) AppendCells(dst []int64, item []byte) []int64 {
	return c.appendCells(dst, hashx.XXHash64(item, c.layout.Seed))
}

func (c *CountSketch) appendCells(dst []int64, h uint64) []int64 {
	var buf [StackDepth]uint32
	word, kwise, cells := signWord(h), c.sign, c.cells
	for r, j := range c.layout.Cells(h, buf[:]) {
		m := -int64(word >> r & 1)
		if kwise != nil {
			m = kwise[r].Sign(h) >> 1
		}
		dst = append(dst, (cells[j]^m)-m)
	}
	return dst
}

// F2Estimate returns the median over rows of the squared row norms —
// an estimate of the second frequency moment ‖f‖₂², equivalent to the
// AMS tug-of-war estimate with the hashing speedup.
func (c *CountSketch) F2Estimate() float64 {
	norms := make([]float64, c.layout.Depth)
	for r := range norms {
		c.layout.rowRuns(r, func(lo, hi int) {
			for _, v := range c.cells[lo:hi] {
				norms[r] += float64(v) * float64(v)
			}
		})
	}
	return core.Median(norms)
}

// N returns the total absolute weight added.
func (c *CountSketch) N() uint64 { return c.n }

// Width returns the sketch width.
func (c *CountSketch) Width() int { return c.layout.Width }

// Depth returns the sketch depth.
func (c *CountSketch) Depth() int { return c.layout.Depth }

// ErrorBoundL2 returns the per-query additive error scale ‖f‖₂/√width
// implied by the sketch's own F2 estimate.
func (c *CountSketch) ErrorBoundL2() float64 {
	return math.Sqrt(c.F2Estimate() / float64(c.layout.Width))
}

// SizeBytes returns the counter storage size.
func (c *CountSketch) SizeBytes() int { return len(c.cells) * 8 }

// Seed returns the hash seed the sketch was created with.
func (c *CountSketch) Seed() uint64 { return c.layout.Seed }

// Layout returns the built layout: the shape, mode and seed that decide
// which cells an item addresses.
func (c *CountSketch) Layout() Layout { return c.layout }

// Merge adds another sketch's counters cell-wise (the structure is
// linear, so this is exact).
func (c *CountSketch) Merge(other *CountSketch) error {
	if !c.layout.Same(other.layout) {
		return fmt.Errorf("%w: count-sketch %v vs %v", core.ErrIncompatible, c.layout, other.layout)
	}
	for j, v := range other.cells {
		c.cells[j] += v
	}
	c.n += other.n
	return nil
}

// MarshalBinary serializes the sketch in Count-Min's envelope shape
// (see CountMin.MarshalBinary) without the conservative byte.
func (c *CountSketch) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// AppendBinary appends the serialization to dst, in one sized pass.
func (c *CountSketch) AppendBinary(dst []byte) ([]byte, error) { return c.encode(dst, nil) }

// StreamBinary writes the envelope AppendBinary appends to s, the table
// as the words it is.
func (c *CountSketch) StreamBinary(s core.Sink) error {
	_, err := c.encode(nil, s)
	return err
}

func (c *CountSketch) encode(dst []byte, s core.Sink) ([]byte, error) {
	w := core.OpenWriter(dst, s, core.TagCountSketch, cmWireVersion, 25+c.layout.wireSize())
	w.U32(uint32(c.layout.Width))
	w.U32(uint32(c.layout.Depth))
	w.U64(c.layout.Seed)
	w.U64(c.n)
	w.U8(byte(c.layout.Mode))
	writeTable(w, &c.layout, c.cells)
	return w.Finish()
}

// countSketchHeader reads a Count Sketch envelope up to its table and
// validates it; the layout is shaped, not built. The serialized depth
// is used as it stands: KWise payloads (including all version-1 ones)
// may carry up to the historical depth 65 and an even one, while a fused
// depth must be odd — the constructor only ever produces odd depths
// there, so an even one was not written by it.
func countSketchHeader(data []byte) (r *core.Reader, version byte, l Layout, n uint64, err error) {
	if r, version, err = core.NewReaderVersioned(data, core.TagCountSketch, cmWireVersion); err != nil {
		return nil, 0, l, 0, err
	}
	l = Layout{Width: int(r.U32()), Depth: int(r.U32()), Seed: r.U64()}
	n = r.U64()
	if l, err = decodeShape(r, version, l, 65); err != nil {
		return nil, 0, l, 0, err
	}
	if l.Mode == Fused && l.Depth%2 == 0 {
		return nil, 0, l, 0, fmt.Errorf("%w: fused count-sketch depth %d is even", core.ErrCorrupt, l.Depth)
	}
	if err := signedDepth(l); err != nil {
		return nil, 0, l, 0, fmt.Errorf("%w: %v", core.ErrCorrupt, err)
	}
	return r, version, l, n, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (c *CountSketch) UnmarshalBinary(data []byte) error {
	r, _, l, n, err := countSketchHeader(data)
	if err != nil {
		return err
	}
	if l, err = l.build(true); err != nil {
		return fmt.Errorf("%w: %v", core.ErrCorrupt, err)
	}
	fresh, err := newCountSketch(l)
	if err != nil {
		return fmt.Errorf("%w: %v", core.ErrCorrupt, err)
	}
	if fresh.cells, err = readTable[int64](r, &l); err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	fresh.n = n
	*c = *fresh
	return nil
}

// CountSketchWire validates a Count Sketch envelope as UnmarshalBinary
// does and locates its cells for a merge of envelopes (core.WireCells):
// shape, seed and mode must agree, n and the signed table add, which is
// Merge. It declines an envelope written before version 3.
func CountSketchWire(env []byte) (core.WireCells, bool, error) {
	r, version, l, _, err := countSketchHeader(env)
	if err != nil || version != cmWireVersion {
		return core.WireCells{}, false, err
	}
	cells := core.WireCells{Sum: r.Offset() - 9, Start: r.Offset()}
	cells.Tables[0] = l.wireTable()
	return cells, true, cells.Check(env)
}
