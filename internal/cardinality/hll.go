package cardinality

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/hashx"
)

// HLL is HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007) with the
// 64-bit-hash engineering refinement from Heule et al. 2013 (no
// large-range correction needed) and linear counting for the small
// range. Registers are packed 6 bits each, the honest space cost the
// paper's space claims refer to: 2^p registers cost ⌈6·2^p/8⌉ bytes.
//
// Relative standard error ≈ 1.04/√m — the "very simple to implement,
// highly sophisticated to analyze" sketch that became the industry
// default for count-distinct (experiments E2, E8, E14).
type HLL struct {
	packed []uint64 // 6-bit registers packed little-endian into words
	p      uint8
	seed   uint64
}

// NewHLL creates a HyperLogLog sketch with 2^p registers, 4 ≤ p ≤ 18.
// p = 14 (16384 registers, 12 KiB) gives ~0.8% standard error and is
// the common production setting.
func NewHLL(p uint8, seed uint64) *HLL {
	if p < 4 || p > 18 {
		panic("cardinality: HLL precision must be in [4,18]")
	}
	m := 1 << p
	return &HLL{packed: make([]uint64, (m*6+63)/64), p: p, seed: seed}
}

// getRegister reads the 6-bit register at index i.
func (h *HLL) getRegister(i int) uint8 {
	bitPos := i * 6
	word, off := bitPos/64, uint(bitPos%64)
	v := h.packed[word] >> off
	if off > 58 {
		v |= h.packed[word+1] << (64 - off)
	}
	return uint8(v & 0x3f)
}

// setRegister writes the 6-bit register at index i.
func (h *HLL) setRegister(i int, val uint8) {
	bitPos := i * 6
	word, off := bitPos/64, uint(bitPos%64)
	h.packed[word] = h.packed[word]&^(0x3f<<off) | uint64(val&0x3f)<<off
	if off > 58 {
		rem := 64 - off
		h.packed[word+1] = h.packed[word+1]&^(0x3f>>rem) | uint64(val&0x3f)>>rem
	}
}

// Add inserts an item.
func (h *HLL) Add(item []byte) {
	h1, _ := hashx.Murmur3_128(item, h.seed)
	h.AddHash(h1)
}

// AddUint64 inserts an integer item without allocation.
func (h *HLL) AddUint64(v uint64) { h.AddHash(hashx.HashUint64(v, h.seed)) }

// AddString inserts a string item without copying or allocating.
func (h *HLL) AddString(s string) {
	h1, _ := hashx.Murmur3_128String(s, h.seed)
	h.AddHash(h1)
}

// ingestChunk is the chunk size of the two-phase batch loops: hash (or
// derive) a whole chunk first, then update from it, keeping the staging
// arrays on the stack while independent register accesses overlap.
const ingestChunk = 256

// AddBatch inserts many items with the two-phase pipelined loop: each
// fixed-size chunk is fully hashed first, then folded into the
// registers. State after AddBatch is byte-identical to calling Add on
// each item in order.
func (h *HLL) AddBatch(items [][]byte) {
	var hs [ingestChunk]uint64
	for len(items) > 0 {
		c := len(items)
		if c > ingestChunk {
			c = ingestChunk
		}
		for i, item := range items[:c] {
			hs[i], _ = hashx.Murmur3_128(item, h.seed)
		}
		h.AddHashBatch(hs[:c])
		items = items[c:]
	}
}

// AddHashBatch folds many pre-hashed values in, hash-once pipelines'
// batch entry point. The loop is two-phase over fixed chunks: phase 1
// derives every value's register index and rank (pure ALU — shift,
// count-leading-zeros), phase 2 streams the register max-updates, so
// consecutive packed-register accesses overlap. Register max is
// commutative, so state is byte-identical to calling AddHash per
// value.
func (h *HLL) AddHashBatch(hs []uint64) {
	var idxs [ingestChunk]int32
	var ranks [ingestChunk]uint8
	p := h.p
	for start := 0; start < len(hs); start += ingestChunk {
		end := start + ingestChunk
		if end > len(hs) {
			end = len(hs)
		}
		chunk := hs[start:end]
		for i, x := range chunk {
			idxs[i] = int32(x >> (64 - p))
			ranks[i] = uint8(bits.LeadingZeros64(x<<p|1<<(p-1))) + 1
		}
		for i := range chunk {
			idx := int(idxs[i])
			if ranks[i] > h.getRegister(idx) {
				h.setRegister(idx, ranks[i])
			}
		}
	}
}

// Update implements core.Updater.
func (h *HLL) Update(item []byte) { h.Add(item) }

// AddHash folds an already-hashed 64-bit value into the sketch. Sharded
// pipelines use it to hash once and update many sketches.
func (h *HLL) AddHash(x uint64) {
	idx := int(x >> (64 - h.p))
	w := x<<h.p | 1<<(h.p-1)
	rank := uint8(bits.LeadingZeros64(w)) + 1
	if rank > h.getRegister(idx) {
		h.setRegister(idx, rank)
	}
}

// alpha returns the HLL bias-correction constant α_m.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// The register file is walked a group at a time: 32 registers fill
// exactly 3 words, and every group looks the same —
//
//	word 0: r0 … r9 whole (bits 0–59), the low 4 bits of r10
//	word 1: the high 2 bits of r10, r11 … r20 whole (bits 2–61), the low 2 bits of r21
//	word 2: the high 4 bits of r21, r22 … r31 whole (bits 4–63)
//
// so a word is ten whole 6-bit lanes after a shift of 0, 2 or 4, and
// only r10 and r21 straddle. 2^p registers are 2^(p-5) whole groups;
// p = 4 alone (16 registers, a word and a half) has none, and is the
// one file the per-register accessors still walk.
const (
	groupWords = 3
	groupRegs  = 32
	// evenLanes selects lanes 0, 2, 4, 6, 8 of a ten-lane word: one
	// 6-bit value at the bottom of each 12-bit slot. slotHigh is the
	// bit above each value, free to catch a borrow.
	evenLanes = 0x03F03F03F03F03F
	slotHigh  = 0x040040040040040
)

// maxLanes is the lane-wise maximum of the ten 6-bit lanes in bits 0–59
// of x and y; bits 60–63 of the inputs are ignored and zero in the
// result. Even and odd lanes go separately, each in 12-bit slots.
func maxLanes(x, y uint64) uint64 {
	return maxSlots(x&evenLanes, y&evenLanes) | maxSlots(x>>6&evenLanes, y>>6&evenLanes)<<6
}

// maxSlots is the slot-wise maximum of 6-bit values held in 12-bit
// slots. (x|slotHigh)-y is x+64-y slot by slot, in [1, 127], so no
// borrow leaves a slot and bit 6 survives exactly where x ≥ y; ge-ge>>6
// widens that bit into the slot's 6-bit select mask.
func maxSlots(x, y uint64) uint64 {
	ge := ((x | slotHigh) - y) & slotHigh
	keep := ge - ge>>6
	return x&keep | y&^keep
}

// invPow2[r] is 2^-r, the harmonic-sum term of a register holding r.
var invPow2 = func() (t [64]float64) {
	for r := range t {
		t[r] = 1 / float64(uint64(1)<<r)
	}
	return t
}()

// harmonic accumulates the ten lanes in bits 0–59 of w, lowest first.
func harmonic(sum float64, zeros int, w uint64) (float64, int) {
	for k := 0; k < 10; k++ {
		sum, zeros = harmonic1(sum, zeros, w&0x3f)
		w >>= 6
	}
	return sum, zeros
}

// harmonic1 accumulates one register: its term, and whether it is
// empty (r-1 borrows into the top bit only for r = 0).
func harmonic1(sum float64, zeros int, r uint64) (float64, int) {
	return sum + invPow2[r], zeros + int((r-1)>>63)
}

// harmonicSum returns Σ 2^-register and the number of empty registers.
// Floating-point addition does not associate, so the terms are added
// in register order 0 … m-1, one at a time: that order is part of the
// estimate's value, and every reader of it (the estimate a coordinator
// returns, the one a test pins) sees the same bits whichever way the
// words are walked.
func (h *HLL) harmonicSum() (sum float64, zeros int) {
	words := h.packed
	g := 0
	for ; g+groupWords <= len(words); g += groupWords {
		w0, w1, w2 := words[g], words[g+1], words[g+2]
		sum, zeros = harmonic(sum, zeros, w0)
		sum, zeros = harmonic1(sum, zeros, w0>>60|w1&0x3<<4)
		sum, zeros = harmonic(sum, zeros, w1>>2)
		sum, zeros = harmonic1(sum, zeros, w1>>62|w2&0xf<<2)
		sum, zeros = harmonic(sum, zeros, w2>>4)
	}
	for i := g / groupWords * groupRegs; i < 1<<h.p; i++ {
		sum, zeros = harmonic1(sum, zeros, uint64(h.getRegister(i)))
	}
	return sum, zeros
}

// Estimate returns the cardinality estimate with small-range linear
// counting: when the raw estimate is below 5m/2 and empty registers
// remain, the linear-counting estimate m·ln(m/V) is more accurate and
// is used instead (the Heule et al. regime switch that E8 probes).
func (h *HLL) Estimate() float64 {
	m := 1 << h.p
	sum, zeros := h.harmonicSum()
	raw := alpha(m) * float64(m) * float64(m) / sum
	if raw <= 2.5*float64(m) && zeros > 0 {
		return linearCounting(m, zeros)
	}
	return raw
}

// RawEstimate returns the uncorrected harmonic-mean estimate, used by
// experiment E8 to demonstrate the small-range bias that linear
// counting (and HLL++'s bias tables) fix.
func (h *HLL) RawEstimate() float64 {
	m := 1 << h.p
	sum, _ := h.harmonicSum()
	return alpha(m) * float64(m) * float64(m) / sum
}

// linearCounting is the balls-in-bins estimator m·ln(m/V) where V is
// the number of empty registers.
func linearCounting(m, zeros int) float64 {
	return float64(m) * math.Log(float64(m)/float64(zeros))
}

// StandardError returns the theoretical relative standard error 1.04/√m.
func (h *HLL) StandardError() float64 { return HLLStandardError(h.p) }

// HLLStandardError is StandardError as the function of the precision
// it is, for a holder that knows its p and has no single HLL to ask.
func HLLStandardError(p uint8) float64 {
	return 1.04 / math.Sqrt(float64(uint64(1)<<p))
}

// P returns the precision parameter.
func (h *HLL) P() uint8 { return h.p }

// Seed returns the hash seed. Wrappers that hash outside a lock (the
// concurrent sharded handle) need it to produce the same item→hash map
// as Add.
func (h *HLL) Seed() uint64 { return h.seed }

// SizeBytes returns the packed register storage size.
func (h *HLL) SizeBytes() int { return len(h.packed) * 8 }

// Merge takes the register-wise maximum — the lossless union that makes
// HLL "slice and dice" reach reporting possible (§3 of the paper):
// sketches per (campaign, demographic) cell can be combined along any
// dimension without double counting. It runs under every sharded read,
// so it goes a group at a time (mergeGroup).
func (h *HLL) Merge(other *HLL) error {
	if h.p != other.p || h.seed != other.seed {
		return fmt.Errorf("%w: HLL p=%d/seed=%d vs p=%d/seed=%d",
			core.ErrIncompatible, h.p, h.seed, other.p, other.seed)
	}
	a, b := h.packed, other.packed[:len(h.packed)]
	g := 0
	for ; g+groupWords <= len(a); g += groupWords {
		a[g], a[g+1], a[g+2] = mergeGroup(a[g], a[g+1], a[g+2], b[g], b[g+1], b[g+2])
	}
	if g < len(a) {
		a[0], a[1] = mergeHalfGroup(a[0], a[1], b[0], b[1])
	}
	return nil
}

// mergeGroup is the register-wise maximum of two groups of 32 registers
// in 3 words: the thirty whole lanes by maxLanes, the two straddlers by
// hand.
func mergeGroup(a0, a1, a2, b0, b1, b2 uint64) (uint64, uint64, uint64) {
	r10 := max(a0>>60|a1&0x3<<4, b0>>60|b1&0x3<<4)
	r21 := max(a1>>62|a2&0xf<<2, b1>>62|b2&0xf<<2)
	return maxLanes(a0, b0) | r10<<60,
		r10>>4 | maxLanes(a1>>2, b1>>2)<<2 | r21<<62,
		r21>>2 | maxLanes(a2>>4, b2>>4)<<4
}

// mergeHalfGroup is mergeGroup for p = 4's file, 16 registers in a word
// and a half: the group step over the 96 bits that hold registers, the
// upper half of a's second word kept as it is.
func mergeHalfGroup(a0, a1, b0, b1 uint64) (uint64, uint64) {
	const regs = 1<<32 - 1
	m0, m1, _ := mergeGroup(a0, a1&regs, 0, b0, b1&regs, 0)
	return m0, m1 | a1&^regs
}

// MergeRegisterWords is Merge's register-wise maximum over two register
// files in their wire form, little-endian words of equal number: what a
// merge of HLL envelopes does to the payload, without decoding it. The
// words are whole 3-word groups — a file, or a span of one that
// core.WireCells.Fold hands it — or all of p = 4's file.
func MergeRegisterWords(dst, src []byte) {
	le := binary.LittleEndian
	src = src[:len(dst)]
	g := 0
	for ; g+8*groupWords <= len(dst); g += 8 * groupWords {
		a, b := dst[g:g+24:g+24], src[g:g+24:g+24]
		m0, m1, m2 := mergeGroup(le.Uint64(a), le.Uint64(a[8:]), le.Uint64(a[16:]), le.Uint64(b), le.Uint64(b[8:]), le.Uint64(b[16:]))
		le.PutUint64(a, m0)
		le.PutUint64(a[8:], m1)
		le.PutUint64(a[16:], m2)
	}
	if g < len(dst) {
		m0, m1 := mergeHalfGroup(le.Uint64(dst), le.Uint64(dst[8:]), le.Uint64(src), le.Uint64(src[8:]))
		le.PutUint64(dst, m0)
		le.PutUint64(dst[8:], m1)
	}
}

// Clone returns a deep copy.
func (h *HLL) Clone() *HLL {
	c := *h
	c.packed = append([]uint64(nil), h.packed...)
	return &c
}

// MarshalBinary serializes the sketch.
func (h *HLL) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// AppendBinary appends the serialization to dst (Go 1.24's
// encoding.BinaryAppender), in one sized pass.
func (h *HLL) AppendBinary(dst []byte) ([]byte, error) { return h.encode(dst, nil) }

// StreamBinary writes the envelope AppendBinary appends to s, the
// register words as they are.
func (h *HLL) StreamBinary(s core.Sink) error {
	_, err := h.encode(nil, s)
	return err
}

func (h *HLL) encode(dst []byte, s core.Sink) ([]byte, error) {
	w := core.OpenWriter(dst, s, core.TagHLL, 1, 13+8*len(h.packed))
	w.U8(h.p)
	w.U64(h.seed)
	w.U64Slice(h.packed)
	return w.Finish()
}

// hllHeader reads an HLL envelope up to its register words and
// validates it: the precision, and a payload of exactly the words a file
// of 2^p registers packs into.
func hllHeader(data []byte) (r *core.Reader, p uint8, seed uint64, words int, err error) {
	if r, _, err = core.NewReaderVersioned(data, core.TagHLL, 1); err != nil {
		return nil, 0, 0, 0, err
	}
	p = r.U8()
	seed = r.U64()
	words = r.Count(8)
	if r.Err() != nil {
		return nil, 0, 0, 0, r.Err()
	}
	if r.Remaining() != 8*words {
		return nil, 0, 0, 0, fmt.Errorf("%w: %d bytes after the header for %d register words", core.ErrCorrupt, r.Remaining(), words)
	}
	if p < 4 || p > 18 {
		return nil, 0, 0, 0, fmt.Errorf("%w: HLL precision %d", core.ErrCorrupt, p)
	}
	if words != ((1<<p)*6+63)/64 {
		return nil, 0, 0, 0, fmt.Errorf("%w: HLL register payload length %d", core.ErrCorrupt, words)
	}
	return r, p, seed, words, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (h *HLL) UnmarshalBinary(data []byte) error {
	r, p, seed, words, err := hllHeader(data)
	if err != nil {
		return err
	}
	packed := make([]uint64, words)
	core.ReadBlock(r, packed)
	if err := r.Done(); err != nil {
		return err
	}
	h.p, h.seed, h.packed = p, seed, packed
	return nil
}

// HLLWire validates an HLL envelope as UnmarshalBinary does and locates
// its register words for a merge of envelopes (core.WireCells): precision
// and seed must agree, and the words merge by MergeRegisterWords.
func HLLWire(env []byte) (core.WireCells, bool, error) {
	r, _, _, words, err := hllHeader(env)
	if err != nil {
		return core.WireCells{}, false, err
	}
	c := core.WireCells{Start: r.Offset() - 4}
	c.Tables[0] = core.WireTable{Parts: 1, Words: words}
	return c, true, nil
}
