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

	"repro/internal/core"
	"repro/internal/hashx"
)

// CountMin is the Count-Min sketch: a depth×width grid of counters;
// each item increments one counter per row (chosen by that row's hash),
// and a point query returns the minimum over rows. Estimates never
// undercount; with width e/ε and depth ln(1/δ) the overcount is at most
// ε·N with probability 1−δ.
type CountMin struct {
	counts       [][]uint64
	flat         []uint64       // fused mode: blocks × depth × 8 interleaved counters
	rows         []*hashx.KWise // nil in derived mode; the KWise slow path otherwise
	width        int
	depth        int
	blocks       uint64 // fused mode: 8-counter blocks per row (width/8)
	seed         uint64
	n            uint64 // total updates (weight), for error accounting
	conservative bool
	kwise        bool // row positions from per-row KWise polynomials instead of double hashing
	fused        bool // counters in the cache-line-interleaved fused layout
}

// ingestChunk is the chunk size of the two-phase batch loops (see
// AddHashBatch): per-item staging arrays of this length stay on the
// stack while giving the memory system long runs of independent
// accesses to overlap.
const ingestChunk = 256

// fusedMaxDepth caps fused-layout depth: each row's in-block slot is a
// 3-bit chunk of one 64-bit slot word, so 21 rows exhaust it. (The same
// single-word discipline caps derived Count-Sketch signs at 63.) Real
// configurations use depth = O(log 1/δ) ≲ 30, and fused exists for
// wide-and-shallow shapes where memory, not hashing, dominates.
const fusedMaxDepth = 21

// NewCountMin creates a width×depth Count-Min sketch. Row positions
// derive from a single 64-bit hash h of the item by double hashing
// (j_r = h + r·DeriveH2(h) reduced into [0, width)), so an update costs
// one hash pass plus depth multiply-adds — the hash-once discipline
// that "An Evaluation of Software Sketches" (Friedman) identifies as
// the dominant software optimization for this family. NewCountMinKWise
// keeps the provably pairwise-independent per-row polynomials.
func NewCountMin(width, depth int, seed uint64) *CountMin {
	if width < 1 || depth < 1 {
		panic("frequency: CountMin dimensions must be positive")
	}
	counts := make([][]uint64, depth)
	for i := range counts {
		counts[i] = make([]uint64, width)
	}
	return &CountMin{counts: counts, width: width, depth: depth, seed: seed}
}

// NewCountMinFused creates a sketch in the fused cache-line layout: the
// depth counters an item touches live in depth *adjacent* 512-bit
// blocks instead of depth distant rows. The item's hash picks one
// block column (FastRange over width/8 columns) and a 3-bit slot per
// row from a remixed slot word, so an update's memory traffic is depth
// consecutive cache lines — a hardware-prefetchable stream — rather
// than depth scattered ones. Width is rounded up to a multiple of 8
// (one cache line of counters); depth is capped at 21 (3 slot bits per
// row from one 64-bit word).
//
// Accuracy: a cell collision still needs both the block column and the
// row's slot to match (probability 1/width per row, as in the standard
// layout), but collisions across rows are correlated through the
// shared column — two items in the same column collide wherever their
// slot words agree. E28 measures the estimate-error cost next to the
// speedup. Fused and standard sketches address different cells and do
// not merge with each other.
func NewCountMinFused(width, depth int, seed uint64) *CountMin {
	if width < 1 || depth < 1 {
		panic("frequency: CountMin dimensions must be positive")
	}
	if depth > fusedMaxDepth {
		panic("frequency: fused CountMin depth must be <= 21 (3 slot bits per row from a 64-bit word)")
	}
	width = (width + 7) &^ 7
	return &CountMin{
		flat:   make([]uint64, width*depth),
		width:  width,
		depth:  depth,
		blocks: uint64(width / 8),
		seed:   seed,
		fused:  true,
	}
}

// NewCountMinKWise creates a sketch whose row positions come from
// depth independent 2-wise polynomial hashes — the construction the
// formal Count-Min analysis assumes. It is the slow path (one field
// multiplication and one division per row); the estimate-compatibility
// tests use it as the reference the derived fast lane is judged
// against.
func NewCountMinKWise(width, depth int, seed uint64) *CountMin {
	c := NewCountMin(width, depth, seed)
	c.kwise = true
	c.rows = newKWiseRows(seed, depth)
	return c
}

// newKWiseRows derives the per-row 2-wise hash functions every
// KWise-mode sketch with the same (seed, depth) shares.
func newKWiseRows(seed uint64, depth int) []*hashx.KWise {
	rowSeeds := hashx.SeedSequence(seed, depth)
	rows := make([]*hashx.KWise, depth)
	for i := range rows {
		rows[i] = hashx.NewKWise(2, rowSeeds[i])
	}
	return rows
}

// NewCountMinWithSpec sizes the sketch from an (ε, δ) contract.
func NewCountMinWithSpec(spec core.Spec, seed uint64) (*CountMin, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w, d := spec.CountMinShape()
	return NewCountMin(w, d, seed), nil
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
// AddHash(hashx.XXHash64(item, seed), w) in both row-hash modes.
func (c *CountMin) Add(item []byte, weight uint64) {
	c.AddHash(hashx.XXHash64(item, c.seed), weight)
}

// AddUint64 increments an integer item's count by weight. Equivalent to
// AddHash(hashx.HashUint64(item, seed), weight).
func (c *CountMin) AddUint64(item, weight uint64) {
	c.AddHash(hashx.HashUint64(item, c.seed), weight)
}

// AddString increments a string item's count by one without copying or
// allocating. Equivalent to Add on the string's bytes.
func (c *CountMin) AddString(item string) {
	c.AddHash(hashx.XXHash64String(item, c.seed), 1)
}

// Update implements core.Updater (weight 1).
func (c *CountMin) Update(item []byte) { c.Add(item, 1) }

// AddHash folds a pre-hashed item into the sketch. Every entry point —
// Add, AddUint64, AddString and the estimate paths — routes through the
// same h, so pipelines that pre-hash with hashx.XXHash64 (or
// hashx.HashUint64 for integers) can freely mix AddHash writes with
// Estimate(item) reads. In derived mode the second double-hashing
// stream expands from h via hashx.DeriveH2; in KWise mode the row
// polynomials are evaluated on h directly.
func (c *CountMin) AddHash(h, weight uint64) {
	if c.fused {
		c.addHashFused(h, weight)
		return
	}
	if !c.kwise {
		c.addHashDerived(h, weight)
		return
	}
	if c.conservative {
		est := c.estimateHash(h)
		target := est + weight
		for r, row := range c.rows {
			j := row.HashRange(h, c.width)
			if c.counts[r][j] < target {
				c.counts[r][j] = target
			}
		}
	} else {
		for r, row := range c.rows {
			c.counts[r][row.HashRange(h, c.width)] += weight
		}
	}
	c.n += weight
}

// addHashDerived is the derived-mode fast lane: row r touches bucket
// FastRange(h + r·DeriveH2(h), width), so the whole update is depth
// multiply-adds on top of one hash.
func (c *CountMin) addHashDerived(h, weight uint64) {
	h2 := hashx.DeriveH2(h)
	w := uint64(c.width)
	if c.conservative {
		est := c.estimateDerived(h)
		target := est + weight
		x := h
		for r := range c.counts {
			j := hashx.FastRange(x, w)
			if c.counts[r][j] < target {
				c.counts[r][j] = target
			}
			x += h2
		}
	} else {
		x := h
		for r := range c.counts {
			c.counts[r][hashx.FastRange(x, w)] += weight
			x += h2
		}
	}
	c.n += weight
}

// fusedBase returns the flat index of row 0's cache line in the block
// column h selects, and the slot word whose 3-bit chunks pick each
// row's cell within its line. The slot word remixes DeriveH2(h) so slot
// bits never correlate with the forced-odd double-hashing stride.
func (c *CountMin) fusedBase(h uint64) (base, slots uint64) {
	return hashx.FastRange(h, c.blocks) * uint64(c.depth) * 8,
		hashx.Mix64(hashx.DeriveH2(h))
}

// addHashFused is the fused-layout fast lane: depth consecutive cache
// lines, one counter bumped per line.
func (c *CountMin) addHashFused(h, weight uint64) {
	base, slots := c.fusedBase(h)
	if c.conservative {
		target := c.estimateFused(h) + weight
		for r := 0; r < c.depth; r++ {
			if cell := base + slots&7; c.flat[cell] < target {
				c.flat[cell] = target
			}
			base += 8
			slots >>= 3
		}
	} else {
		for r := 0; r < c.depth; r++ {
			c.flat[base+slots&7] += weight
			base += 8
			slots >>= 3
		}
	}
	c.n += weight
}

func (c *CountMin) estimateFused(h uint64) uint64 {
	base, slots := c.fusedBase(h)
	est := uint64(math.MaxUint64)
	for r := 0; r < c.depth; r++ {
		if v := c.flat[base+slots&7]; v < est {
			est = v
		}
		base += 8
		slots >>= 3
	}
	return est
}

// AddBatch increments each item's count by one. Chunks are fully
// hashed (pure ALU) before any counter update (the memory stream), the
// same two-phase pipelined loop as AddHashBatch. Equivalent to
// Add(item, 1) per item; must not retain the item slices.
func (c *CountMin) AddBatch(items [][]byte) {
	var hs [ingestChunk]uint64
	for len(items) > 0 {
		n := len(items)
		if n > ingestChunk {
			n = ingestChunk
		}
		for i, item := range items[:n] {
			hs[i] = hashx.XXHash64(item, c.seed)
		}
		c.AddHashBatch(hs[:n])
		items = items[n:]
	}
}

// AddHashBatch folds many pre-hashed items in, each with weight 1. The
// resulting state is byte-identical to calling AddHash per item.
//
// In derived and fused modes (counter adds commute, so update order is
// free) the loop is two-phase over fixed-size chunks: phase 1 computes
// every item's addressing state with pure ALU work, phase 2 streams the
// counter updates, so consecutive items' cache misses overlap instead
// of each miss serializing behind the next item's hash math.
// Conservative and KWise modes fall back to the scalar loop
// (conservative updates read-then-write and are order-sensitive).
func (c *CountMin) AddHashBatch(hs []uint64) {
	if c.conservative || c.kwise {
		for _, h := range hs {
			c.AddHash(h, 1)
		}
		return
	}
	if c.fused {
		c.addHashBatchFused(hs)
		return
	}
	c.addHashBatchDerived(hs)
}

// addHashBatchDerived processes chunks row-by-row: the inner loop
// walks one row for the whole chunk, issuing up to ingestChunk
// independent read-modify-writes into the same row before moving on.
func (c *CountMin) addHashBatchDerived(hs []uint64) {
	var xs, h2s [ingestChunk]uint64
	w := uint64(c.width)
	for start := 0; start < len(hs); start += ingestChunk {
		end := start + ingestChunk
		if end > len(hs) {
			end = len(hs)
		}
		chunk := hs[start:end]
		for i, h := range chunk {
			xs[i] = h
			h2s[i] = hashx.DeriveH2(h)
		}
		for r := range c.counts {
			row := c.counts[r]
			for i := range chunk {
				row[hashx.FastRange(xs[i], w)]++
				xs[i] += h2s[i]
			}
		}
		c.n += uint64(len(chunk))
	}
}

// addHashBatchFused precomputes each chunk item's block base and slot
// word (phase 1), then streams the depth-line updates (phase 2).
func (c *CountMin) addHashBatchFused(hs []uint64) {
	var bases, slotws [ingestChunk]uint64
	for start := 0; start < len(hs); start += ingestChunk {
		end := start + ingestChunk
		if end > len(hs) {
			end = len(hs)
		}
		chunk := hs[start:end]
		for i, h := range chunk {
			bases[i], slotws[i] = c.fusedBase(h)
		}
		for i := range chunk {
			base, slots := bases[i], slotws[i]
			for r := 0; r < c.depth; r++ {
				c.flat[base+slots&7]++
				base += 8
				slots >>= 3
			}
		}
		c.n += uint64(len(chunk))
	}
}

// Estimate returns the point-query estimate for item: an overestimate
// of the true count by at most ε‖f‖₁ with probability 1−δ. It probes
// exactly the buckets Add touched for the same item.
func (c *CountMin) Estimate(item []byte) uint64 {
	return c.estimateHash(hashx.XXHash64(item, c.seed))
}

// EstimateUint64 returns the point-query estimate for an integer item.
func (c *CountMin) EstimateUint64(item uint64) uint64 {
	return c.estimateHash(hashx.HashUint64(item, c.seed))
}

// EstimateString returns the point-query estimate for a string item
// without copying or allocating.
func (c *CountMin) EstimateString(item string) uint64 {
	return c.estimateHash(hashx.XXHash64String(item, c.seed))
}

func (c *CountMin) estimateHash(h uint64) uint64 {
	if c.fused {
		return c.estimateFused(h)
	}
	if !c.kwise {
		return c.estimateDerived(h)
	}
	est := uint64(math.MaxUint64)
	for r, row := range c.rows {
		if v := c.counts[r][row.HashRange(h, c.width)]; v < est {
			est = v
		}
	}
	return est
}

func (c *CountMin) estimateDerived(h uint64) uint64 {
	h2 := hashx.DeriveH2(h)
	w := uint64(c.width)
	est := uint64(math.MaxUint64)
	x := h
	for r := range c.counts {
		if v := c.counts[r][hashx.FastRange(x, w)]; v < est {
			est = v
		}
		x += h2
	}
	return est
}

// EstimatePerRow exposes each row's counter value and bucket index for
// an item. Wrappers that post-process counters (the differentially
// private sketch in internal/privacy adds per-counter noise) need the
// per-row view rather than the final minimum.
func (c *CountMin) EstimatePerRow(item []byte) (counts []uint64, buckets []int) {
	depth := c.depth
	counts = make([]uint64, depth)
	buckets = make([]int, depth)
	h := hashx.XXHash64(item, c.seed)
	if c.fused {
		base, slots := c.fusedBase(h)
		col := int(base / uint64(depth)) // block column × 8: row-relative bucket base
		for r := 0; r < depth; r++ {
			buckets[r] = col + int(slots&7)
			counts[r] = c.flat[base+slots&7]
			base += 8
			slots >>= 3
		}
		return counts, buckets
	}
	if c.kwise {
		for r, row := range c.rows {
			j := row.HashRange(h, c.width)
			buckets[r] = j
			counts[r] = c.counts[r][j]
		}
		return counts, buckets
	}
	h2 := hashx.DeriveH2(h)
	w := uint64(c.width)
	for r := range c.counts {
		j := int(hashx.FastRange(h, w))
		buckets[r] = j
		counts[r] = c.counts[r][j]
		h += h2
	}
	return counts, buckets
}

// AppendCells appends the depth counters a point query for item reads
// — row r's addressed cell, in row order: EstimatePerRow's counts — to
// dst. Estimate is their minimum (MinCells), and because Merge is
// cell-wise addition the same cells summed across sketches are exactly
// the merged sketch's cells: they are all a remote reader needs to
// answer the query, which is what the registry's projection capability
// ships instead of the table.
func (c *CountMin) AppendCells(dst []uint64, item []byte) []uint64 {
	counts, _ := c.EstimatePerRow(item)
	return append(dst, counts...)
}

// MinCells is the Count-Min point estimate over an item's cells.
func MinCells(cells []uint64) uint64 {
	est := uint64(math.MaxUint64)
	for _, v := range cells {
		if v < est {
			est = v
		}
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
	if c.fused {
		stride := uint64(c.depth) * 8
		for r := 0; r < c.depth; r++ {
			var dot uint64
			for base := uint64(r) * 8; base < uint64(len(c.flat)); base += stride {
				for s := uint64(0); s < 8; s++ {
					dot += c.flat[base+s] * other.flat[base+s]
				}
			}
			if dot < best {
				best = dot
			}
		}
		return best, nil
	}
	for r := range c.counts {
		var dot uint64
		for j := range c.counts[r] {
			dot += c.counts[r][j] * other.counts[r][j]
		}
		if dot < best {
			best = dot
		}
	}
	return best, nil
}

// N returns the total weight added.
func (c *CountMin) N() uint64 { return c.n }

// Width returns the sketch width.
func (c *CountMin) Width() int { return c.width }

// Depth returns the sketch depth.
func (c *CountMin) Depth() int { return c.depth }

// ErrorBound returns the additive error bound ε·N = (e/width)·N implied
// by the current stream weight.
func (c *CountMin) ErrorBound() float64 {
	return math.E / float64(c.width) * float64(c.n)
}

// SizeBytes returns the counter storage size.
func (c *CountMin) SizeBytes() int { return c.depth * c.width * 8 }

// Seed returns the hash seed the sketch was created with.
func (c *CountMin) Seed() uint64 { return c.seed }

// Conservative reports whether conservative update is enabled (which
// makes the sketch non-mergeable).
func (c *CountMin) Conservative() bool { return c.conservative }

// Derived reports whether row positions come from the double-hashing
// fast lane (true, the default) or the per-row KWise polynomials.
// Sketches in different modes address different buckets and are not
// mergeable.
func (c *CountMin) Derived() bool { return !c.kwise }

// Fused reports whether counters live in the cache-line-interleaved
// fused layout. Fused and standard sketches address different cells
// and are not mergeable with each other.
func (c *CountMin) Fused() bool { return c.fused }

// CountsRowMajor returns a copy of the counter grid flattened in
// row-major order (row r, bucket j at index r*width+j). It exists so
// hash-compatible external representations — notably
// concurrent.AtomicCountMin, which derives its row positions by the
// same double-hashing scheme — can exchange counters with this sketch.
// For fused-mode sketches the returned slice is the fused flat layout
// (cell order block-column, row, slot) rather than row-major; peers
// exchanging counters must be fused too, which compatibleWith-style
// checks enforce via Fused().
func (c *CountMin) CountsRowMajor() []uint64 {
	if c.fused {
		return append([]uint64(nil), c.flat...)
	}
	out := make([]uint64, 0, c.depth*c.width)
	for _, row := range c.counts {
		out = append(out, row...)
	}
	return out
}

// NewCountMinFromCounts reconstitutes a derived-mode sketch from a
// row-major counter grid produced by a hash-compatible peer (same
// width, depth and seed imply identical derived row positions). counts
// must hold width*depth values.
func NewCountMinFromCounts(width, depth int, seed uint64, counts []uint64, n uint64) (*CountMin, error) {
	if width < 1 || depth < 1 || len(counts) != width*depth {
		return nil, fmt.Errorf("%w: %d counters for a %dx%d grid",
			core.ErrIncompatible, len(counts), width, depth)
	}
	c := NewCountMin(width, depth, seed)
	for r := 0; r < depth; r++ {
		copy(c.counts[r], counts[r*width:(r+1)*width])
	}
	c.n = n
	return c, nil
}

// NewCountMinFusedFromCounts reconstitutes a fused-mode sketch from a
// flat fused-layout counter slice produced by a hash-compatible peer
// (same width, depth and seed imply identical block/slot addressing).
// width must already be a multiple of 8 and counts must hold
// width*depth values.
func NewCountMinFusedFromCounts(width, depth int, seed uint64, counts []uint64, n uint64) (*CountMin, error) {
	if width < 1 || width%8 != 0 || depth < 1 || depth > fusedMaxDepth || len(counts) != width*depth {
		return nil, fmt.Errorf("%w: %d counters for a fused %dx%d grid",
			core.ErrIncompatible, len(counts), width, depth)
	}
	c := NewCountMinFused(width, depth, seed)
	copy(c.flat, counts)
	c.n = n
	return c, nil
}

func (c *CountMin) compatible(other *CountMin) error {
	if c.width != other.width || c.depth != other.depth || c.seed != other.seed {
		return fmt.Errorf("%w: count-min %dx%d/seed=%d vs %dx%d/seed=%d",
			core.ErrIncompatible, c.width, c.depth, c.seed,
			other.width, other.depth, other.seed)
	}
	if c.kwise != other.kwise {
		return fmt.Errorf("%w: count-min row-hash modes differ (derived vs kwise)", core.ErrIncompatible)
	}
	if c.fused != other.fused {
		return fmt.Errorf("%w: count-min layouts differ (fused vs row-major)", core.ErrIncompatible)
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
	if c.fused {
		for i, v := range other.flat {
			c.flat[i] += v
		}
	} else {
		for r := range c.counts {
			for j := range c.counts[r] {
				c.counts[r][j] += other.counts[r][j]
			}
		}
	}
	c.n += other.n
	return nil
}

// Clone returns a deep copy.
func (c *CountMin) Clone() *CountMin {
	if c.fused {
		cp := NewCountMinFused(c.width, c.depth, c.seed)
		cp.conservative = c.conservative
		cp.n = c.n
		copy(cp.flat, c.flat)
		return cp
	}
	cp := NewCountMin(c.width, c.depth, c.seed)
	cp.kwise, cp.rows = c.kwise, c.rows // rows are immutable once built
	cp.conservative = c.conservative
	cp.n = c.n
	for r := range c.counts {
		copy(cp.counts[r], c.counts[r])
	}
	return cp
}

// Layout/row-hash mode byte values in wire version ≥ 2. Version 2
// writers only ever produced derived and kwise; fused arrived with
// version 3, so a version-2 payload carrying the fused mode byte is
// corrupt by construction and is rejected (see UnmarshalBinary).
const (
	cmModeDerived byte = 0
	cmModeKWise   byte = 1
	cmModeFused   byte = 2
)

// MarshalBinary serializes the sketch. Version 3 extends the version-2
// row-hash byte into a mode byte (0 derived, 1 kwise, 2 fused); fused
// payloads carry one flat slice in the fused cell order instead of
// per-row slices. Version-1 payloads (written before the derived fast
// lane existed) decode as KWise-mode sketches.
func (c *CountMin) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagCountMin, 3)
	w.U32(uint32(c.width))
	w.U32(uint32(c.depth))
	w.U64(c.seed)
	w.U64(c.n)
	if c.conservative {
		w.U8(1)
	} else {
		w.U8(0)
	}
	switch {
	case c.fused:
		w.U8(cmModeFused)
		w.U64Slice(c.flat)
	case c.kwise:
		w.U8(cmModeKWise)
		for _, row := range c.counts {
			w.U64Slice(row)
		}
	default:
		w.U8(cmModeDerived)
		for _, row := range c.counts {
			w.U64Slice(row)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary. The
// mode byte is validated against the version that wrote it: version 2
// predates the fused layout, so mode 2 in a version-2 envelope means
// the byte and the payload layout cannot agree and the payload is
// rejected rather than misparsed.
func (c *CountMin) UnmarshalBinary(data []byte) error {
	r, version, err := core.NewReaderVersioned(data, core.TagCountMin, 3)
	if err != nil {
		return err
	}
	width := int(r.U32())
	depth := int(r.U32())
	seed := r.U64()
	n := r.U64()
	conservative := r.U8() == 1
	mode := cmModeKWise // every version-1 writer used KWise rows
	if version >= 2 {
		mode = r.U8()
	}
	if r.Err() != nil {
		return r.Err()
	}
	if version == 2 && mode > cmModeKWise {
		return fmt.Errorf("%w: count-min mode byte %d in a version-2 envelope (fused layouts are version 3)", core.ErrCorrupt, mode)
	}
	if mode > cmModeFused {
		return fmt.Errorf("%w: count-min mode byte %d", core.ErrCorrupt, mode)
	}
	if mode == cmModeFused {
		if width < 1 || width%8 != 0 || depth < 1 || depth > fusedMaxDepth {
			return fmt.Errorf("%w: fused count-min dims %dx%d", core.ErrCorrupt, width, depth)
		}
		flat := r.U64Slice()
		if len(flat) != width*depth {
			return fmt.Errorf("%w: fused count-min payload %d cells for %dx%d", core.ErrCorrupt, len(flat), width, depth)
		}
		if err := r.Done(); err != nil {
			return err
		}
		fresh := NewCountMinFused(width, depth, seed)
		fresh.flat = flat
		fresh.n = n
		fresh.conservative = conservative
		*c = *fresh
		return nil
	}
	if width < 1 || depth < 1 || depth > 64 {
		return fmt.Errorf("%w: count-min dims %dx%d", core.ErrCorrupt, width, depth)
	}
	counts := make([][]uint64, depth)
	for i := range counts {
		counts[i] = r.U64Slice()
		if len(counts[i]) != width {
			return fmt.Errorf("%w: count-min row %d length %d", core.ErrCorrupt, i, len(counts[i]))
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	fresh := NewCountMin(width, depth, seed)
	if mode == cmModeKWise {
		fresh.kwise = true
		fresh.rows = newKWiseRows(seed, depth)
	}
	fresh.counts = counts
	fresh.n = n
	fresh.conservative = conservative
	*c = *fresh
	return nil
}
