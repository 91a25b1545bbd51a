package cardinality

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// The two references below are the per-register loops Merge and
// Estimate were before they walked words. They stay here as the
// definition the word kernels are held to: same registers after a
// merge, same bits in an estimate.

func refMerge(dst, src *HLL) {
	for i := 0; i < (1 << dst.p); i++ {
		if r := src.getRegister(i); r > dst.getRegister(i) {
			dst.setRegister(i, r)
		}
	}
}

func refEstimate(h *HLL) float64 {
	m := (1 << h.p)
	var sum float64
	zeros := 0
	for i := 0; i < m; i++ {
		r := h.getRegister(i)
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	raw := alpha(m) * float64(m) * float64(m) / sum
	if raw <= 2.5*float64(m) && zeros > 0 {
		return linearCounting(m, zeros)
	}
	return raw
}

// wordFiles returns the register files the word kernels are checked
// on at precision p: fills from empty to saturated, each also with a
// rank-63 register forced into the first lane, both straddlers and the
// last lane of a group (where those exist: p = 4 has 16 registers).
func wordFiles(p uint8) []*HLL {
	var out []*HLL
	for k, fill := range []int{0, 10, 1000, 200_000} {
		h := NewHLL(p, 7)
		rng := randx.New(uint64(p)<<8 | uint64(k))
		for i := 0; i < fill; i++ {
			h.AddHash(rng.Uint64())
		}
		forced := h.Clone()
		for _, i := range []int{0, 10, 21, (1 << h.p) - 1} {
			if i < (1 << h.p) {
				forced.setRegister(i, 63)
			}
		}
		out = append(out, h, forced)
	}
	return out
}

func TestHLLMergeWordsMatchesReference(t *testing.T) {
	for p := uint8(4); p <= 18; p++ {
		files := wordFiles(p)
		for i, a := range files {
			for j, b := range files {
				got, want := a.Clone(), a.Clone()
				if err := got.Merge(b); err != nil {
					t.Fatal(err)
				}
				refMerge(want, b)
				for w := range want.packed {
					if got.packed[w] != want.packed[w] {
						t.Fatalf("p=%d files %d,%d: word %d is %#x, reference %#x", p, i, j, w, got.packed[w], want.packed[w])
					}
				}
			}
		}
	}
}

func TestHLLEstimateBitIdentical(t *testing.T) {
	for p := uint8(4); p <= 18; p++ {
		for i, h := range wordFiles(p) {
			got, want := h.Estimate(), refEstimate(h)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("p=%d file %d: Estimate %v (%#x), reference %v (%#x)",
					p, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestHLLMergeEveryLaneValue drives every (x, y) pair of 6-bit values
// through every lane position of a group, so a select mask that leaks
// across a lane or slot boundary cannot hide behind realistic ranks.
func TestHLLMergeEveryLaneValue(t *testing.T) {
	for lane := 0; lane < groupRegs; lane++ {
		for x := uint8(0); x < 64; x++ {
			for y := uint8(0); y < 64; y++ {
				a, b := NewHLL(5, 1), NewHLL(5, 1)
				for i := 0; i < groupRegs; i++ { // neighbours the other way round
					a.setRegister(i, y)
					b.setRegister(i, x)
				}
				a.setRegister(lane, x)
				b.setRegister(lane, y)
				if err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < groupRegs; i++ {
					if got := a.getRegister(i); got != max(x, y) {
						t.Fatalf("lane %d x=%d y=%d: register %d is %d", lane, x, y, i, got)
					}
				}
			}
		}
	}
}

func BenchmarkHLLMerge(b *testing.B) {
	x, y := NewHLL(14, 1), NewHLL(14, 1)
	rng := randx.New(1)
	for i := 0; i < 100_000; i++ {
		x.AddHash(rng.Uint64())
		y.AddHash(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Merge(y); err != nil {
			b.Fatal(err)
		}
	}
}

// A gathered read merges one register file per shard and estimates
// once; neither walk may touch the heap.
func TestHLLMergeEstimateZeroAlloc(t *testing.T) {
	files := wordFiles(14)
	x, y := files[len(files)-2], files[len(files)-1]
	if n := testing.AllocsPerRun(20, func() {
		if err := x.Merge(y); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("HLL.Merge: %v allocs per merge, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { _ = x.Estimate() }); n != 0 {
		t.Errorf("HLL.Estimate: %v allocs per estimate, want 0", n)
	}
}
