package sample

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/hashx"
)

// This file implements L0 (support) sampling over turnstile streams:
// return a member of {i : f(i) ≠ 0} even after insertions and
// deletions. The construction is the standard three-layer linear
// sketch: a 1-sparse recovery cell (sum / index-weighted sum /
// fingerprint), an s-sparse recovery structure (hashing into many
// cells), and geometric subsampling levels. Being linear, L0 samplers
// support merge by cell-wise addition — the property the AGM graph
// sketch (internal/graphsketch) relies on to sample cut edges from
// merged neighborhood sketches.

// oneSparse is a 1-sparse recovery cell: it can detect whether the
// (signed) items hashed into it form exactly one nonzero coordinate,
// and if so return it. Detection uses the polynomial fingerprint
// Σ wᵢ·r^i over GF(2^61−1), giving false-positive probability ≤
// support/2^61.
type oneSparse struct {
	w  int64  // Σ wᵢ
	iw int64  // Σ wᵢ·i (indexes are < 2^32 so this cannot overflow for our streams)
	fp uint64 // Σ wᵢ·r^i mod p
}

// l0Prime is the fingerprint field modulus.
const l0Prime = hashx.MersennePrime61

// fpPow computes r^i mod p by fast exponentiation.
func fpPow(r uint64, i uint64) uint64 {
	result := uint64(1)
	base := r % l0Prime
	for i > 0 {
		if i&1 == 1 {
			result = mulMod(result, base)
		}
		base = mulMod(base, base)
		i >>= 1
	}
	return result
}

func mulMod(a, b uint64) uint64 {
	// Mersenne reduction of the 128-bit product: hi·2^64 + lo ≡ hi·8 + lo.
	hi, lo := bits.Mul64(a%l0Prime, b%l0Prime)
	return addMod(reduceMod(lo), reduceMod(hi<<3))
}

func reduceMod(x uint64) uint64 {
	x = (x & l0Prime) + (x >> 61)
	if x >= l0Prime {
		x -= l0Prime
	}
	return x
}

func addMod(a, b uint64) uint64 {
	s := a + b
	if s >= l0Prime {
		s -= l0Prime
	}
	return s
}

func subMod(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + l0Prime - b
}

// update folds (index, weight) into the cell.
func (c *oneSparse) update(index uint64, weight int64, r uint64) {
	c.w += weight
	c.iw += weight * int64(index)
	t := fpPow(r, index)
	if weight >= 0 {
		c.fp = addMod(c.fp, mulMod(uint64(weight)%l0Prime, t))
	} else {
		c.fp = subMod(c.fp, mulMod(uint64(-weight)%l0Prime, t))
	}
}

// add merges another cell (linearity).
func (c *oneSparse) add(other oneSparse) {
	c.w += other.w
	c.iw += other.iw
	c.fp = addMod(c.fp, other.fp)
}

// recover returns (index, weight, true) if the cell provably holds
// exactly one nonzero coordinate.
func (c *oneSparse) recover(r uint64) (uint64, int64, bool) {
	if c.w == 0 {
		return 0, 0, false
	}
	if c.iw%c.w != 0 {
		return 0, 0, false
	}
	q := c.iw / c.w
	if q < 0 {
		return 0, 0, false
	}
	idx := uint64(q)
	// Verify fingerprint: fp must equal w·r^idx.
	var wfp uint64
	if c.w >= 0 {
		wfp = mulMod(uint64(c.w)%l0Prime, fpPow(r, idx))
	} else {
		wfp = l0Prime - mulMod(uint64(-c.w)%l0Prime, fpPow(r, idx))
		if wfp == l0Prime {
			wfp = 0
		}
	}
	if wfp != c.fp {
		return 0, 0, false
	}
	return idx, c.w, true
}

// SparseRecovery recovers a vector with support ≤ s from a turnstile
// stream: s·2 cells per row × rows rows of 1-sparse cells, indexed by
// pairwise-independent hashes. Recovery scans all cells and returns the
// union of successful 1-sparse decodings.
type SparseRecovery struct {
	cells [][]oneSparse
	hash  []*hashx.KWise
	s     int
	r     uint64 // fingerprint base
	seed  uint64
}

// NewSparseRecovery creates a structure that recovers supports up to s
// with high probability.
func NewSparseRecovery(s int, seed uint64) *SparseRecovery {
	if s < 1 {
		panic("sample: sparse recovery requires s >= 1")
	}
	const rows = 4
	seeds := hashx.SeedSequence(seed, rows+1)
	cells := make([][]oneSparse, rows)
	hash := make([]*hashx.KWise, rows)
	for i := 0; i < rows; i++ {
		cells[i] = make([]oneSparse, 2*s)
		hash[i] = hashx.NewKWise(2, seeds[i])
	}
	r := seeds[rows]%(l0Prime-2) + 1
	return &SparseRecovery{cells: cells, hash: hash, s: s, r: r, seed: seed}
}

// Update folds (index, weight) into the structure.
func (sr *SparseRecovery) Update(index uint64, weight int64) {
	for i, h := range sr.hash {
		j := h.HashRange(index, len(sr.cells[i]))
		sr.cells[i][j].update(index, weight, sr.r)
	}
}

// Merge adds another structure cell-wise.
func (sr *SparseRecovery) Merge(other *SparseRecovery) error {
	if sr.s != other.s || sr.seed != other.seed {
		return fmt.Errorf("%w: sparse recovery shape mismatch", core.ErrIncompatible)
	}
	for i := range sr.cells {
		for j := range sr.cells[i] {
			sr.cells[i][j].add(other.cells[i][j])
		}
	}
	return nil
}

// MarshalBinary serializes the structure (linear sketches travel
// between machines in distributed graph processing).
func (sr *SparseRecovery) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagSparseRecovery, 1)
	w.U32(uint32(sr.s))
	w.U64(sr.seed)
	for _, row := range sr.cells {
		for _, c := range row {
			w.I64(c.w)
			w.I64(c.iw)
			w.U64(c.fp)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a structure serialized by MarshalBinary.
func (sr *SparseRecovery) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagSparseRecovery, 1)
	if err != nil {
		return err
	}
	s := int(r.U32())
	seed := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if s < 1 || s > 1<<20 || r.Remaining() != 4*2*s*24 { // the cells are allocated from s: they must all be here
		return fmt.Errorf("%w: sparse recovery s=%d with %d bytes of cells", core.ErrCorrupt, s, r.Remaining())
	}
	fresh := NewSparseRecovery(s, seed)
	for i := range fresh.cells {
		for j := range fresh.cells[i] {
			fresh.cells[i][j] = oneSparse{w: r.I64(), iw: r.I64(), fp: r.U64()}
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*sr = *fresh
	return nil
}

// Recover returns the recovered (index, weight) pairs. If the true
// support exceeds s, recovery may be partial or empty.
func (sr *SparseRecovery) Recover() map[uint64]int64 {
	out := make(map[uint64]int64)
	for i := range sr.cells {
		for j := range sr.cells[i] {
			if idx, w, ok := sr.cells[i][j].recover(sr.r); ok {
				out[idx] = w
			}
		}
	}
	return out
}

// L0Sampler samples a member of the support of a turnstile stream. It
// keeps ~log(universe) geometric subsampling levels, each holding an
// s-sparse recovery structure over the items whose level hash reaches
// that depth. Query scans levels from sparsest down and returns the
// recovered coordinate with the smallest tie-break hash, which is close
// to a uniform support sample.
//
// Level structures are allocated lazily: a stream touching d distinct
// indexes materializes only ~log₂(d) levels, which keeps fleets of
// samplers (one per graph vertex in internal/graphsketch) affordable.
type L0Sampler struct {
	levels     []*SparseRecovery // nil until first touched
	levelSeeds []uint64
	s          int
	lhash      *hashx.KWise
	seed       uint64
}

// l0Levels is the number of subsampling levels (supports universes up
// to 2^40 comfortably).
const l0Levels = 40

// NewL0Sampler creates an L0 sampler with per-level sparsity s
// (s = 12 gives high recovery probability).
func NewL0Sampler(s int, seed uint64) *L0Sampler {
	if s < 1 {
		panic("sample: L0 sampler requires s >= 1")
	}
	seeds := hashx.SeedSequence(seed, l0Levels+1)
	return &L0Sampler{
		levels:     make([]*SparseRecovery, l0Levels),
		levelSeeds: seeds[:l0Levels],
		s:          s,
		lhash:      hashx.NewKWise(2, seeds[l0Levels]),
		seed:       seed,
	}
}

// level materializes and returns the recovery structure at depth j.
func (l *L0Sampler) level(j int) *SparseRecovery {
	if l.levels[j] == nil {
		l.levels[j] = NewSparseRecovery(l.s, l.levelSeeds[j])
	}
	return l.levels[j]
}

// levelOf returns the subsampling depth of an index: level j includes
// the index if the level hash has j leading "all levels up to j" — we
// use the standard trailing-zeros geometric assignment.
func (l *L0Sampler) levelOf(index uint64) int {
	h := l.lhash.Hash(index)
	// Count trailing zeros (geometric with p = 1/2), capped.
	tz := 0
	for h&1 == 0 && tz < l0Levels-1 {
		tz++
		h >>= 1
	}
	return tz
}

// Update folds (index, weight) into every level the index belongs to
// (levels 0..levelOf inclusive).
func (l *L0Sampler) Update(index uint64, weight int64) {
	depth := l.levelOf(index)
	for j := 0; j <= depth; j++ {
		l.level(j).Update(index, weight)
	}
}

// SameShape reports whether other was built with l's sparsity and seed:
// whether the two add.
func (l *L0Sampler) SameShape(other *L0Sampler) bool {
	return l.seed == other.seed && l.s == other.s && len(l.levels) == len(other.levels)
}

// Merge adds another sampler level-wise.
func (l *L0Sampler) Merge(other *L0Sampler) error {
	if !l.SameShape(other) {
		return fmt.Errorf("%w: L0 sampler shape mismatch", core.ErrIncompatible)
	}
	for i := range l.levels {
		if other.levels[i] == nil {
			continue // other level holds nothing: merging zeros is a no-op
		}
		if err := l.level(i).Merge(other.levels[i]); err != nil {
			return err
		}
	}
	return nil
}

// MarshalBinary serializes the sampler: only materialized levels are
// written, preserving the lazy-allocation memory profile on load.
func (l *L0Sampler) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagL0SamplerFull, 1)
	w.U32(uint32(l.s))
	w.U64(l.seed)
	live := 0
	for _, lv := range l.levels {
		if lv != nil {
			live++
		}
	}
	w.U32(uint32(live))
	for i, lv := range l.levels {
		if lv == nil {
			continue
		}
		w.U32(uint32(i))
		payload, err := lv.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.BytesField(payload)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sampler serialized by MarshalBinary.
func (l *L0Sampler) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagL0SamplerFull, 1)
	if err != nil {
		return err
	}
	s := int(r.U32())
	seed := r.U64()
	live := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	// A level is allocated from s on the first update that reaches it,
	// whatever the envelope held: 2^16 is 12 MB a level.
	if s < 1 || s > 1<<16 || live < 0 || live > l0Levels {
		return fmt.Errorf("%w: L0 sampler s=%d live=%d", core.ErrCorrupt, s, live)
	}
	fresh := NewL0Sampler(s, seed)
	for i := 0; i < live; i++ {
		idx := int(r.U32())
		payload := r.BytesField()
		if r.Err() != nil {
			return r.Err()
		}
		if idx < 0 || idx >= l0Levels {
			return fmt.Errorf("%w: L0 sampler level index %d", core.ErrCorrupt, idx)
		}
		var sr SparseRecovery
		if err := sr.UnmarshalBinary(payload); err != nil {
			return err
		}
		if sr.seed != fresh.levelSeeds[idx] || sr.s != s {
			return fmt.Errorf("%w: L0 sampler level seed or sparsity mismatch", core.ErrCorrupt)
		}
		fresh.levels[idx] = &sr
	}
	if err := r.Done(); err != nil {
		return err
	}
	*l = *fresh
	return nil
}

// Sample returns a member of the current support with its net weight.
// ok is false when the support is empty or recovery failed at every
// level (probability decreasing geometrically in s).
func (l *L0Sampler) Sample() (index uint64, weight int64, ok bool) {
	// Scan from the deepest (sparsest) level down; the first level
	// whose recovery is non-empty gives candidates.
	for j := len(l.levels) - 1; j >= 0; j-- {
		if l.levels[j] == nil {
			continue
		}
		rec := l.levels[j].Recover()
		if len(rec) == 0 {
			continue
		}
		// Choose the candidate with minimum tie-break hash.
		first := true
		var bestIdx uint64
		var bestW int64
		var bestH uint64
		for idx, w := range rec {
			h := l.lhash.Hash(idx ^ 0x5bd1e995)
			if first || h < bestH {
				bestIdx, bestW, bestH = idx, w, h
				first = false
			}
		}
		return bestIdx, bestW, true
	}
	return 0, 0, false
}
