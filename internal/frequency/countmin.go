// Package frequency implements the frequency-estimation and heavy-
// hitter sketches the paper traces: Boyer–Moore majority (1981),
// Misra–Gries (1982), the Count sketch (Charikar–Chen–Farach-Colton
// 2002), the Count-Min sketch (Cormode–Muthukrishnan 2005) with
// conservative update and dyadic range queries, and SpaceSaving
// (Metwally et al. 2005).
//
// Count-Min answers point queries with additive error ε‖f‖₁ (an L1
// guarantee); Count Sketch achieves additive error ε‖f‖₂ (an L2
// guarantee), which is stronger on skewed data — experiment E4
// reproduces that crossover. The deterministic counter-based summaries
// (Misra–Gries, SpaceSaving) solve heavy hitters with ε‖f‖₁ error in
// k = 1/ε counters and merge per Mergeable Summaries (experiments E5,
// E7).
package frequency

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashx"
)

// CountMin is the Count-Min sketch: a depth×width grid of counters;
// each item increments one counter per row (chosen by the Layout), and
// a point query returns the minimum over rows. Estimates never
// undercount; with width e/ε and depth ln(1/δ) the overcount is at most
// ε·N with probability 1−δ.
type CountMin struct {
	layout       Layout
	cells        []uint64 // one flat table in the layout's cell order
	n            uint64   // total updates (weight), for error accounting
	conservative bool
}

// ingestChunk is how many items AddBatch hashes (pure ALU) before it
// hands them to AddHashBatch: the staging array stays on the stack.
const ingestChunk = 256

// NewCountMin creates a width×depth Count-Min sketch in the Derived
// layout: the shorthand for NewCountMinLayout.
func NewCountMin(width, depth int, seed uint64) *CountMin {
	return NewCountMinLayout(Layout{Width: width, Depth: depth, Seed: seed})
}

// NewCountMinLayout creates an empty sketch over l. Sketches of
// different layouts address different cells and do not merge with each
// other.
func NewCountMinLayout(l Layout) *CountMin {
	l = mustBuild(l, false)
	return &CountMin{layout: l, cells: make([]uint64, l.Len())}
}

// SetConservative enables conservative update (Estan–Varghese): an
// update only raises the counters that are at the current minimum, to
// the minimum+weight. This never breaks the overestimate guarantee and
// substantially reduces error on skewed streams (ablation E4a). It must
// be chosen before any updates and makes the sketch non-mergeable.
func (c *CountMin) SetConservative(on bool) {
	if c.n > 0 {
		panic("frequency: SetConservative must be called before updates")
	}
	c.conservative = on
}

// Add increments the count of item by weight: one hash pass, all row
// positions derived from it. Add(item, w) is exactly equivalent to
// AddHash(hashx.XXHash64(item, seed), w) in every layout.
func (c *CountMin) Add(item []byte, weight uint64) {
	c.AddHash(hashx.XXHash64(item, c.layout.Seed), weight)
}

// AddUint64 increments an integer item's count by weight. Equivalent to
// AddHash(hashx.HashUint64(item, seed), weight).
func (c *CountMin) AddUint64(item, weight uint64) {
	c.AddHash(hashx.HashUint64(item, c.layout.Seed), weight)
}

// AddString increments a string item's count by one without copying or
// allocating. Equivalent to Add on the string's bytes.
func (c *CountMin) AddString(item string) {
	c.AddHash(hashx.XXHash64String(item, c.layout.Seed), 1)
}

// Update implements core.Updater (weight 1).
func (c *CountMin) Update(item []byte) { c.Add(item, 1) }

// AddHash folds a pre-hashed item into the sketch. Every entry point —
// Add, AddUint64, AddString and the estimate paths — routes through the
// same h, so pipelines that pre-hash with hashx.XXHash64 (or
// hashx.HashUint64 for integers) can freely mix AddHash writes with
// Estimate(item) reads.
func (c *CountMin) AddHash(h, weight uint64) {
	var buf [StackDepth]uint32
	idx, cells := c.layout.Cells(h, buf[:]), c.cells
	if c.conservative {
		target := minAt(cells, idx) + weight
		for _, j := range idx {
			if cells[j] < target {
				cells[j] = target
			}
		}
	} else {
		for _, j := range idx {
			cells[j] += weight
		}
	}
	c.n += weight
}

// AddBatch increments each item's count by one. Chunks are fully
// hashed (pure ALU) before any counter update (the memory stream).
// Equivalent to Add(item, 1) per item; must not retain the item slices.
func (c *CountMin) AddBatch(items [][]byte) {
	var hs [ingestChunk]uint64
	for len(items) > 0 {
		n := min(len(items), ingestChunk)
		for i, item := range items[:n] {
			hs[i] = hashx.XXHash64(item, c.layout.Seed)
		}
		c.AddHashBatch(hs[:n])
		items = items[n:]
	}
}

// AddHashBatch folds many pre-hashed items in, each with weight 1, in
// the two phases of Layout.CellsBatch. The resulting state is
// byte-identical to calling AddHash per item. Conservative updates read
// before they write and are order-sensitive, so they stay scalar.
func (c *CountMin) AddHashBatch(hs []uint64) {
	if c.conservative {
		for _, h := range hs {
			c.AddHash(h, 1)
		}
		return
	}
	var buf [BatchCells]uint32
	cells := c.cells
	for len(hs) > 0 {
		idx, n := c.layout.CellsBatch(hs, buf[:])
		for _, j := range idx {
			cells[j]++
		}
		c.n += uint64(n)
		hs = hs[n:]
	}
}

// AddWeightedHashBatch is AddHashBatch for a block of weighted items,
// hs[i] with weight ws[i]: each cell of phase 2 takes its item's weight,
// found by the order the layout streamed the cells in. Byte-identical to
// calling AddHash per item.
func (c *CountMin) AddWeightedHashBatch(hs, ws []uint64) {
	if c.conservative {
		for i, h := range hs {
			c.AddHash(h, ws[i])
		}
		return
	}
	var buf [BatchCells]uint32
	cells := c.cells
	for len(hs) > 0 {
		idx, n := c.layout.CellsBatch(hs, buf[:])
		w := ws[:n]
		if c.layout.RowMajor() {
			for ; len(idx) > 0; idx = idx[n:] {
				for i, j := range idx[:n] {
					cells[j] += w[i]
				}
			}
		} else {
			for d := len(idx) / n; len(idx) > 0; idx, w = idx[d:], w[1:] {
				for _, j := range idx[:d] {
					cells[j] += w[0]
				}
			}
		}
		for _, wi := range ws[:n] {
			c.n += wi
		}
		hs, ws = hs[n:], ws[n:]
	}
}

// Estimate returns the point-query estimate for item: an overestimate
// of the true count by at most ε‖f‖₁ with probability 1−δ. It probes
// exactly the buckets Add touched for the same item.
func (c *CountMin) Estimate(item []byte) uint64 {
	return c.EstimateHash(hashx.XXHash64(item, c.layout.Seed))
}

// EstimateUint64 returns the point-query estimate for an integer item.
func (c *CountMin) EstimateUint64(item uint64) uint64 {
	return c.EstimateHash(hashx.HashUint64(item, c.layout.Seed))
}

// EstimateHash answers a point query for a pre-hashed item.
func (c *CountMin) EstimateHash(h uint64) uint64 {
	var buf [StackDepth]uint32
	return minAt(c.cells, c.layout.Cells(h, buf[:]))
}

// EstimatePerRow exposes each row's counter value and bucket index for
// an item. Wrappers that post-process counters (the differentially
// private sketch in internal/privacy adds per-counter noise) need the
// per-row view rather than the final minimum.
func (c *CountMin) EstimatePerRow(item []byte) (counts []uint64, buckets []int) {
	idx := c.layout.Cells(hashx.XXHash64(item, c.layout.Seed), nil)
	counts = make([]uint64, len(idx))
	buckets = make([]int, len(idx))
	for r, j := range idx {
		counts[r] = c.cells[j]
		buckets[r] = c.layout.bucket(r, int(j))
	}
	return counts, buckets
}

// AppendCells appends the depth counters a point query for item reads
// — row r's addressed cell, in row order — to dst. Estimate is their
// minimum (MinCells), and because Merge is cell-wise addition the same
// cells summed across sketches are exactly the merged sketch's cells:
// they are all a remote reader needs to answer the query, which is what
// the registry's projection capability ships instead of the table.
func (c *CountMin) AppendCells(dst []uint64, item []byte) []uint64 {
	var buf [StackDepth]uint32
	for _, j := range c.layout.Cells(hashx.XXHash64(item, c.layout.Seed), buf[:]) {
		dst = append(dst, c.cells[j])
	}
	return dst
}

// MinCells is the Count-Min point estimate over an item's cells.
func MinCells(cells []uint64) uint64 {
	est := uint64(math.MaxUint64)
	for _, v := range cells {
		est = min(est, v)
	}
	return est
}

// InnerProduct estimates the inner product Σᵢ f(i)·g(i) of the two
// frequency vectors summarized by compatible sketches, via the minimum
// over rows of the row dot products. Used for join-size estimation.
func (c *CountMin) InnerProduct(other *CountMin) (uint64, error) {
	if err := c.compatible(other); err != nil {
		return 0, err
	}
	best := uint64(math.MaxUint64)
	for r := 0; r < c.layout.Depth; r++ {
		var dot uint64
		c.layout.rowRuns(r, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				dot += c.cells[j] * other.cells[j]
			}
		})
		best = min(best, dot)
	}
	return best, nil
}

// N returns the total weight added.
func (c *CountMin) N() uint64 { return c.n }

// Width returns the sketch width.
func (c *CountMin) Width() int { return c.layout.Width }

// Depth returns the sketch depth.
func (c *CountMin) Depth() int { return c.layout.Depth }

// ErrorBound returns the additive error bound ε·N = (e/width)·N implied
// by the current stream weight.
func (c *CountMin) ErrorBound() float64 {
	return math.E / float64(c.layout.Width) * float64(c.n)
}

// SizeBytes returns the counter storage size.
func (c *CountMin) SizeBytes() int { return len(c.cells) * 8 }

// Seed returns the hash seed the sketch was created with.
func (c *CountMin) Seed() uint64 { return c.layout.Seed }

// Layout returns the built layout: the shape, mode and seed that decide
// which cells an item addresses.
func (c *CountMin) Layout() Layout { return c.layout }

// Conservative reports whether conservative update is enabled (which
// makes the sketch non-mergeable).
func (c *CountMin) Conservative() bool { return c.conservative }

// Table returns the live counter table in the layout's cell order. It
// is the exchange format between holders of the same Layout:
// concurrent.AtomicCountMin adds it cell-wise to merge and fills a fresh
// sketch's (then SetN) to snapshot.
func (c *CountMin) Table() []uint64 { return c.cells }

func (c *CountMin) compatible(other *CountMin) error {
	if !c.layout.Same(other.layout) {
		return fmt.Errorf("%w: count-min %v vs %v", core.ErrIncompatible, c.layout, other.layout)
	}
	return nil
}

// Merge adds another sketch's counters cell-wise; the result summarizes
// the combined stream exactly as if one sketch had seen it all.
// Conservative-update sketches cannot be merged (their counters are not
// linear), and attempting to merge them returns ErrIncompatible.
func (c *CountMin) Merge(other *CountMin) error {
	if err := c.compatible(other); err != nil {
		return err
	}
	if c.conservative || other.conservative {
		return fmt.Errorf("%w: conservative-update sketches are not mergeable", core.ErrIncompatible)
	}
	for j, v := range other.cells {
		c.cells[j] += v
	}
	c.n += other.n
	return nil
}

// MarshalBinary serializes the sketch. Version 3 extends the version-2
// row-hash byte into the Mode byte: version 2 writers only ever
// produced derived and kwise, fused arrived with version 3 and carries
// one flat slice in the fused cell order instead of per-row slices.
// Version-1 payloads (written before the derived fast lane existed)
// decode as KWise sketches.
func (c *CountMin) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// AppendBinary appends the serialization to dst (Go 1.24's
// encoding.BinaryAppender): the caller owns the buffer, and one with
// room for the envelope makes the marshal allocation-free.
func (c *CountMin) AppendBinary(dst []byte) ([]byte, error) {
	return EncodeCountMin(dst, nil, &c.layout, c.n, c.conservative, c.cells)
}

// StreamBinary writes the envelope AppendBinary appends to s, the table
// as the words it is.
func (c *CountMin) StreamBinary(s core.Sink) error {
	_, err := EncodeCountMin(nil, s, &c.layout, c.n, c.conservative, c.cells)
	return err
}

// EncodeCountMin writes the Count-Min envelope of a table of layout l,
// in one sized pass: to s when s is set, else at the end of dst.
// CountMin holds such a table as plain words; concurrent.AtomicCountMin
// holds one as atomics and writes the same envelope from them without
// copying the table first.
func EncodeCountMin[T uint64 | atomic.Uint64](dst []byte, s core.Sink, l *Layout, n uint64, conservative bool, cells []T) ([]byte, error) {
	w := core.OpenWriter(dst, s, core.TagCountMin, cmWireVersion, 26+l.wireSize())
	w.U32(uint32(l.Width))
	w.U32(uint32(l.Depth))
	w.U64(l.Seed)
	w.U64(n)
	if conservative {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U8(byte(l.Mode))
	writeTable(w, l, cells)
	return w.Finish()
}

// decodeShape reads the mode byte of a Count-Min or Count Sketch
// envelope and validates the shape it names. The byte is validated
// against the version that wrote it — version 2 predates the fused
// layout, so mode 2 there means the byte and the payload cannot agree
// and the payload is rejected rather than misparsed — and the shape
// against what a writer can have produced: at most maxDepth rows, and a
// fused width already whole cache lines. The layout comes back shaped
// but not built: a decoder builds it, a merge of envelopes needs no rows.
func decodeShape(r *core.Reader, version byte, l Layout, maxDepth int) (Layout, error) {
	l.Mode = KWise // every version-1 writer used KWise rows
	if version >= 2 {
		l.Mode = Mode(r.U8())
	}
	if r.Err() != nil {
		return l, r.Err()
	}
	if version == 2 && l.Mode > KWise {
		return l, fmt.Errorf("%w: mode byte %d in a version-2 envelope (fused layouts are version 3)", core.ErrCorrupt, l.Mode)
	}
	if l.Depth > maxDepth { // before build draws a row per claimed depth
		return l, fmt.Errorf("%w: depth %d", core.ErrCorrupt, l.Depth)
	}
	shaped, err := l.shaped()
	if err != nil {
		return l, fmt.Errorf("%w: %v", core.ErrCorrupt, err)
	}
	if shaped.Width != l.Width {
		return l, fmt.Errorf("%w: fused width %d is not whole cache lines", core.ErrCorrupt, l.Width)
	}
	return shaped, nil
}

// cmWireVersion is the version EncodeCountMin and CountSketch write.
const cmWireVersion = 3

// countMinHeader reads a Count-Min envelope up to its table and
// validates it; the layout is shaped, not built.
func countMinHeader(data []byte) (r *core.Reader, version byte, c CountMin, err error) {
	if r, version, err = core.NewReaderVersioned(data, core.TagCountMin, cmWireVersion); err != nil {
		return nil, 0, c, err
	}
	c.layout = Layout{Width: int(r.U32()), Depth: int(r.U32()), Seed: r.U64()}
	c.n = r.U64()
	c.conservative = r.U8() == 1
	c.layout, err = decodeShape(r, version, c.layout, 64)
	return r, version, c, err
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (c *CountMin) UnmarshalBinary(data []byte) error {
	r, _, fresh, err := countMinHeader(data)
	if err != nil {
		return err
	}
	if fresh.layout, err = fresh.layout.build(false); err != nil {
		return fmt.Errorf("%w: %v", core.ErrCorrupt, err)
	}
	if fresh.cells, err = readTable[uint64](r, &fresh.layout); err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	*c = fresh
	return nil
}

// CountMinWire validates a Count-Min envelope as UnmarshalBinary does
// and locates its cells for a merge of envelopes (core.WireCells): shape,
// seed and mode must agree, n and the table add, which is Merge. It
// declines (false, no error) an envelope a merge of bytes cannot stand
// for: one written before version 3, whose header a decoder would
// rewrite, and a conservative one, whose refusal is Merge's to word —
// so every byte of the header but n is compared, the conservative byte
// being 0 in both.
func CountMinWire(env []byte) (core.WireCells, bool, error) {
	r, version, c, err := countMinHeader(env)
	if err != nil || version != cmWireVersion || env[r.Offset()-2] != 0 {
		return core.WireCells{}, false, err
	}
	cells := core.WireCells{Sum: r.Offset() - 10, Start: r.Offset()}
	cells.Tables[0] = c.layout.wireTable()
	return cells, true, cells.Check(env)
}
