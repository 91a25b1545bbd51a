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
type CountSketch struct {
	counts [][]int64
	flat   []int64        // fused mode: blocks × depth × 8 interleaved counters
	bucket []*hashx.KWise // KWise mode: 2-wise bucket hashes, one per row
	sign   []*hashx.KWise // KWise mode: 4-wise sign hashes, one per row
	width  int
	depth  int
	blocks uint64 // fused mode: 8-counter blocks per row (width/8)
	seed   uint64
	n      uint64
	kwise  bool // row buckets/signs from KWise polynomials instead of double hashing
	fused  bool // counters in the cache-line-interleaved fused layout
}

// NewCountSketch creates a width×depth Count Sketch. Depth should be
// odd so the median is unambiguous; even depths are raised by one.
// Row buckets and signs derive from a single 64-bit hash of the item
// (double hashing for buckets, bits of a remixed second stream for
// signs); NewCountSketchKWise keeps the per-row polynomial hashes the
// formal analysis assumes. Depth is capped at 63 (after the odd
// rounding): derived-mode signs come from one 64-bit word, one bit per
// row, and deeper sketches would silently reuse sign bits across rows.
// Real configurations use depth = O(log 1/δ) ≲ 30.
func NewCountSketch(width, depth int, seed uint64) *CountSketch {
	if width < 1 || depth < 1 {
		panic("frequency: CountSketch dimensions must be positive")
	}
	if depth%2 == 0 {
		depth++
	}
	if depth > 63 {
		panic("frequency: CountSketch depth must be <= 63 (derived signs draw one bit per row from a 64-bit word)")
	}
	counts := make([][]int64, depth)
	for i := range counts {
		counts[i] = make([]int64, width)
	}
	return &CountSketch{counts: counts, width: width, depth: depth, seed: seed}
}

// NewCountSketchFused creates a sketch in the fused cache-line layout
// (see NewCountMinFused): the depth counters an item touches live in
// depth adjacent 512-bit blocks, addressed by one block column plus a
// 3-bit slot per row, so an update streams depth consecutive cache
// lines instead of touching depth scattered rows. Width is rounded up
// to a multiple of 8; depth is rounded odd and capped at 21 (3 slot
// bits per row from one 64-bit word). Signs come from the same remixed
// word as derived mode — a separate word from the slots, so a row's
// sign never correlates with its bucket. Fused and standard sketches
// address different cells and do not merge with each other.
func NewCountSketchFused(width, depth int, seed uint64) *CountSketch {
	if width < 1 || depth < 1 {
		panic("frequency: CountSketch dimensions must be positive")
	}
	if depth%2 == 0 {
		depth++
	}
	if depth > fusedMaxDepth {
		panic("frequency: fused CountSketch depth must be <= 21 (3 slot bits per row from a 64-bit word)")
	}
	width = (width + 7) &^ 7
	return &CountSketch{
		flat:   make([]int64, width*depth),
		width:  width,
		depth:  depth,
		blocks: uint64(width / 8),
		seed:   seed,
		fused:  true,
	}
}

// NewCountSketchKWise creates a sketch on the slow path: per-row 2-wise
// bucket hashes and 4-wise sign hashes, the construction behind the L2
// guarantee proofs. The estimate-compatibility tests use it as the
// reference for the derived fast lane.
func NewCountSketchKWise(width, depth int, seed uint64) *CountSketch {
	c := NewCountSketch(width, depth, seed)
	c.kwise = true
	c.bucket, c.sign = newCountSketchRows(seed, len(c.counts))
	return c
}

// newCountSketchRows derives the per-row bucket and sign hash functions
// every KWise-mode sketch with the same (seed, depth) shares.
func newCountSketchRows(seed uint64, depth int) (bucket, sign []*hashx.KWise) {
	seeds := hashx.SeedSequence(seed, 2*depth)
	bucket = make([]*hashx.KWise, depth)
	sign = make([]*hashx.KWise, depth)
	for i := 0; i < depth; i++ {
		bucket[i] = hashx.NewKWise(2, seeds[2*i])
		sign[i] = hashx.NewKWise(4, seeds[2*i+1])
	}
	return bucket, sign
}

// Add adds weight (may be negative: turnstile streams are supported) to
// the count of item: one hash pass, all row buckets and signs derived
// from it. Add(item, w) is exactly equivalent to
// AddHash(hashx.XXHash64(item, seed), w) in both row-hash modes.
func (c *CountSketch) Add(item []byte, weight int64) {
	c.AddHash(hashx.XXHash64(item, c.seed), weight)
}

// AddUint64 adds weight to an integer item's count. Equivalent to
// AddHash(hashx.HashUint64(item, seed), weight).
func (c *CountSketch) AddUint64(item uint64, weight int64) {
	c.AddHash(hashx.HashUint64(item, c.seed), weight)
}

// AddString adds weight to a string item's count without copying or
// allocating. Equivalent to Add on the string's bytes.
func (c *CountSketch) AddString(item string, weight int64) {
	c.AddHash(hashx.XXHash64String(item, c.seed), weight)
}

// Update implements core.Updater (weight 1).
func (c *CountSketch) Update(item []byte) { c.Add(item, 1) }

// AddHash folds a pre-hashed item into the sketch. Every entry point —
// Add, AddUint64, AddString and the estimate paths — routes through the
// same h, so pipelines that pre-hash with hashx.XXHash64 (or
// hashx.HashUint64) can mix AddHash writes with Estimate(item) reads.
func (c *CountSketch) AddHash(h uint64, weight int64) {
	if c.fused {
		c.addHashFused(h, weight)
		return
	}
	if !c.kwise {
		c.addHashDerived(h, weight)
		return
	}
	for r := range c.counts {
		j := c.bucket[r].HashRange(h, c.width)
		c.counts[r][j] += c.sign[r].Sign(h) * weight
	}
	c.countWeight(weight)
}

// addHashDerived is the derived-mode fast lane: row r's bucket is
// FastRange(h + r·h2, width) with h2 = DeriveH2(h), and its sign is
// bit r of Mix64(h2) (remixed so the forced-odd stride bit never
// biases a sign). Depth ≤ 63 is enforced at construction, so each row
// reads a distinct sign bit.
func (c *CountSketch) addHashDerived(h uint64, weight int64) {
	h2 := hashx.DeriveH2(h)
	signBits := hashx.Mix64(h2)
	w := uint64(c.width)
	x := h
	for r := range c.counts {
		j := hashx.FastRange(x, w)
		// Branchless ±weight: a random sign branch would mispredict
		// half the time, one stall per row. m is 0 (keep) or -1
		// (negate via two's complement identity (v^m)-m).
		m := -int64(signBits >> uint(r) & 1)
		c.counts[r][j] += (weight ^ m) - m
		x += h2
	}
	c.countWeight(weight)
}

// fusedState returns the flat index of row 0's cache line in the block
// column h selects, the sign word (bit r = row r's sign, identical to
// derived mode), and the slot word whose 3-bit chunks pick each row's
// cell. Slots remix the sign word once more so a row's slot bits never
// overlap its sign bit (bit 0 of the sign word is one of row 0's slot
// bits if both streams share a word — that correlation would bias
// row 0's estimate).
func (c *CountSketch) fusedState(h uint64) (base, signBits, slots uint64) {
	signBits = hashx.Mix64(hashx.DeriveH2(h))
	return hashx.FastRange(h, c.blocks) * uint64(c.depth) * 8, signBits, hashx.Mix64(signBits)
}

// addHashFused is the fused-layout fast lane: depth consecutive cache
// lines, one signed counter bumped per line.
func (c *CountSketch) addHashFused(h uint64, weight int64) {
	base, signBits, slots := c.fusedState(h)
	for r := 0; r < c.depth; r++ {
		m := -int64(signBits & 1)
		c.flat[base+slots&7] += (weight ^ m) - m
		base += 8
		slots >>= 3
		signBits >>= 1
	}
	c.countWeight(weight)
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

// AddHashBatch folds many pre-hashed items in, each with weight 1,
// using the two-phase pipelined chunk loop in derived and fused modes
// (signed counter adds commute, so update order is free); KWise mode
// falls back to the scalar loop. State is identical to calling AddHash
// per item.
func (c *CountSketch) AddHashBatch(hs []uint64) {
	if c.kwise {
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

// addHashBatchDerived processes chunks row-by-row, like the Count-Min
// batch loop, with each row's sign bit peeled from the precomputed
// sign words.
func (c *CountSketch) addHashBatchDerived(hs []uint64) {
	var xs, h2s, signs [ingestChunk]uint64
	w := uint64(c.width)
	for start := 0; start < len(hs); start += ingestChunk {
		end := start + ingestChunk
		if end > len(hs) {
			end = len(hs)
		}
		chunk := hs[start:end]
		for i, h := range chunk {
			h2 := hashx.DeriveH2(h)
			xs[i] = h
			h2s[i] = h2
			signs[i] = hashx.Mix64(h2)
		}
		for r := range c.counts {
			row := c.counts[r]
			for i := range chunk {
				m := -int64(signs[i] >> uint(r) & 1)
				row[hashx.FastRange(xs[i], w)] += (1 ^ m) - m
				xs[i] += h2s[i]
			}
		}
		c.n += uint64(len(chunk))
	}
}

// addHashBatchFused precomputes each chunk item's block base, sign and
// slot words (phase 1), then streams the depth-line updates (phase 2).
func (c *CountSketch) addHashBatchFused(hs []uint64) {
	var bases, signws, slotws [ingestChunk]uint64
	for start := 0; start < len(hs); start += ingestChunk {
		end := start + ingestChunk
		if end > len(hs) {
			end = len(hs)
		}
		chunk := hs[start:end]
		for i, h := range chunk {
			bases[i], signws[i], slotws[i] = c.fusedState(h)
		}
		for i := range chunk {
			base, signBits, slots := bases[i], signws[i], slotws[i]
			for r := 0; r < c.depth; r++ {
				m := -int64(signBits & 1)
				c.flat[base+slots&7] += (1 ^ m) - m
				base += 8
				slots >>= 3
				signBits >>= 1
			}
		}
		c.n += uint64(len(chunk))
	}
}

func (c *CountSketch) countWeight(weight int64) {
	if weight >= 0 {
		c.n += uint64(weight)
	} else {
		c.n += uint64(-weight)
	}
}

// Estimate returns the unbiased point-query estimate (median over rows
// of sign-corrected counters). Unlike Count-Min it can under- as well
// as overestimate.
func (c *CountSketch) Estimate(item []byte) int64 {
	return c.estimateHash(hashx.XXHash64(item, c.seed))
}

// EstimateUint64 returns the point-query estimate for an integer item.
func (c *CountSketch) EstimateUint64(item uint64) int64 {
	return c.estimateHash(hashx.HashUint64(item, c.seed))
}

func (c *CountSketch) estimateHash(h uint64) int64 {
	// Typical depths fit the stack buffer, keeping the query path
	// allocation-free like the add path.
	var buf [fusedMaxDepth]int64
	return MedianCells(c.appendCells(buf[:0], h))
}

// AppendCells appends the depth sign-corrected counters a point query
// for item reads — sign_r(item)·counts[r][bucket_r(item)], in row order
// — to dst. Estimate is their median (MedianCells), and because Merge
// is cell-wise addition and a row's sign is fixed per item, the same
// cells summed across sketches are exactly the merged sketch's: they
// are all a remote reader needs to answer the query.
func (c *CountSketch) AppendCells(dst []int64, item []byte) []int64 {
	return c.appendCells(dst, hashx.XXHash64(item, c.seed))
}

// appendCells is the one place a read resolves an item hash to its
// signed cells, in all three addressing modes.
func (c *CountSketch) appendCells(dst []int64, h uint64) []int64 {
	switch {
	case c.fused:
		base, signBits, slots := c.fusedState(h)
		for r := 0; r < c.depth; r++ {
			m := -int64(signBits & 1)
			dst = append(dst, (c.flat[base+slots&7]^m)-m)
			base += 8
			slots >>= 3
			signBits >>= 1
		}
	case c.kwise:
		for r := range c.counts {
			j := c.bucket[r].HashRange(h, c.width)
			dst = append(dst, c.sign[r].Sign(h)*c.counts[r][j])
		}
	default:
		h2 := hashx.DeriveH2(h)
		signBits := hashx.Mix64(h2)
		w := uint64(c.width)
		for r := range c.counts {
			m := -int64(signBits >> uint(r) & 1)
			dst = append(dst, (c.counts[r][hashx.FastRange(h, w)]^m)-m)
			h += h2
		}
	}
	return dst
}

// F2Estimate returns the median over rows of the squared row norms —
// an estimate of the second frequency moment ‖f‖₂², equivalent to the
// AMS tug-of-war estimate with the hashing speedup.
func (c *CountSketch) F2Estimate() float64 {
	norms := make([]float64, c.depth)
	if c.fused {
		stride := uint64(c.depth) * 8
		for r := 0; r < c.depth; r++ {
			var s float64
			for base := uint64(r) * 8; base < uint64(len(c.flat)); base += stride {
				for j := uint64(0); j < 8; j++ {
					v := float64(c.flat[base+j])
					s += v * v
				}
			}
			norms[r] = s
		}
		return core.Median(norms)
	}
	for r := range c.counts {
		var s float64
		for _, v := range c.counts[r] {
			s += float64(v) * float64(v)
		}
		norms[r] = s
	}
	return core.Median(norms)
}

// N returns the total absolute weight added.
func (c *CountSketch) N() uint64 { return c.n }

// Width returns the sketch width.
func (c *CountSketch) Width() int { return c.width }

// Depth returns the sketch depth.
func (c *CountSketch) Depth() int { return c.depth }

// ErrorBoundL2 returns the per-query additive error scale ‖f‖₂/√width
// implied by the sketch's own F2 estimate.
func (c *CountSketch) ErrorBoundL2() float64 {
	return math.Sqrt(c.F2Estimate() / float64(c.width))
}

// SizeBytes returns the counter storage size.
func (c *CountSketch) SizeBytes() int { return c.depth * c.width * 8 }

// Seed returns the hash seed the sketch was created with.
func (c *CountSketch) Seed() uint64 { return c.seed }

// Derived reports whether buckets and signs come from the
// double-hashing fast lane (true, the default) or per-row KWise
// polynomials.
func (c *CountSketch) Derived() bool { return !c.kwise }

// Fused reports whether counters live in the cache-line-interleaved
// fused layout. Fused and standard sketches address different cells
// and are not mergeable with each other.
func (c *CountSketch) Fused() bool { return c.fused }

// Merge adds another sketch's counters cell-wise (the structure is
// linear, so this is exact).
func (c *CountSketch) Merge(other *CountSketch) error {
	if c.width != other.width || c.depth != other.depth || c.seed != other.seed ||
		c.kwise != other.kwise || c.fused != other.fused {
		return fmt.Errorf("%w: count-sketch shape mismatch", core.ErrIncompatible)
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

// MarshalBinary serializes the sketch. Version 3 extends the version-2
// row-hash byte into a mode byte (0 derived, 1 kwise, 2 fused); fused
// payloads carry one flat slice in the fused cell order instead of
// per-row slices. Version-1 payloads decode as KWise-mode sketches.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagCountSketch, 3)
	w.U32(uint32(c.width))
	w.U32(uint32(c.depth))
	w.U64(c.seed)
	w.U64(c.n)
	switch {
	case c.fused:
		w.U8(cmModeFused)
		w.I64Slice(c.flat)
	case c.kwise:
		w.U8(cmModeKWise)
		for _, row := range c.counts {
			w.I64Slice(row)
		}
	default:
		w.U8(cmModeDerived)
		for _, row := range c.counts {
			w.I64Slice(row)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary. As
// with Count-Min, the mode byte is validated against the version that
// wrote it: version 2 predates the fused layout, so a version-2
// envelope carrying the fused mode byte is rejected rather than
// misparsed.
func (c *CountSketch) UnmarshalBinary(data []byte) error {
	r, version, err := core.NewReaderVersioned(data, core.TagCountSketch, 3)
	if err != nil {
		return err
	}
	width := int(r.U32())
	depth := int(r.U32())
	seed := r.U64()
	n := r.U64()
	mode := cmModeKWise // every version-1 writer used KWise rows
	if version >= 2 {
		mode = r.U8()
	}
	if r.Err() != nil {
		return r.Err()
	}
	if version == 2 && mode > cmModeKWise {
		return fmt.Errorf("%w: count-sketch mode byte %d in a version-2 envelope (fused layouts are version 3)", core.ErrCorrupt, mode)
	}
	if mode > cmModeFused {
		return fmt.Errorf("%w: count-sketch mode byte %d", core.ErrCorrupt, mode)
	}
	if mode == cmModeFused {
		// Depth must be odd: the constructor only ever produces odd
		// depths, and an even value would be silently re-rounded,
		// detaching the decoded shape from the payload.
		if width < 1 || width%8 != 0 || depth < 1 || depth > fusedMaxDepth || depth%2 == 0 {
			return fmt.Errorf("%w: fused count-sketch dims %dx%d", core.ErrCorrupt, width, depth)
		}
		flat := r.I64Slice()
		if len(flat) != width*depth {
			return fmt.Errorf("%w: fused count-sketch payload %d cells for %dx%d", core.ErrCorrupt, len(flat), width, depth)
		}
		if err := r.Done(); err != nil {
			return err
		}
		fresh := NewCountSketchFused(width, depth, seed)
		fresh.flat = flat
		fresh.n = n
		*c = *fresh
		return nil
	}
	// KWise payloads (including all version-1 ones) may carry up to the
	// historical depth 65; derived payloads are capped at 63 so every
	// row reads a distinct bit of the single 64-bit sign word.
	kwise := mode == cmModeKWise
	if width < 1 || depth < 1 || depth > 65 || (!kwise && depth > 63) {
		return fmt.Errorf("%w: count-sketch dims %dx%d", core.ErrCorrupt, width, depth)
	}
	counts := make([][]int64, depth)
	for i := range counts {
		counts[i] = r.I64Slice()
		if len(counts[i]) != width {
			return fmt.Errorf("%w: count-sketch row %d length", core.ErrCorrupt, i)
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	// KWise hash rows rebuild from the seed; depth may have been rounded
	// odd at construction, so rebuild with the serialized depth directly.
	var bucket, sign []*hashx.KWise
	if kwise {
		bucket, sign = newCountSketchRows(seed, depth)
	}
	c.width, c.depth, c.seed, c.n = width, depth, seed, n
	c.counts, c.bucket, c.sign, c.kwise = counts, bucket, sign, kwise
	c.flat, c.blocks, c.fused = nil, 0, false
	return nil
}
