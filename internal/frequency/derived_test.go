package frequency

// Tests for the derived (hash-once) fast lane added alongside the
// KWise reference rows: batch/string entry points must be byte-exact
// against the single-item path, both row-hash modes must deliver their
// accuracy guarantees, and the wire format must round-trip the mode
// (with version-1 payloads still decoding as KWise).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hashx"
)

func TestCountMinAddHashBatchMatchesSequential(t *testing.T) {
	hs := make([]uint64, 4096)
	for i := range hs {
		hs[i] = hashx.HashUint64(uint64(i), 99)
	}
	seq := NewCountMin(1024, 5, 3)
	bat := NewCountMin(1024, 5, 3)
	for _, h := range hs {
		seq.AddHash(h, 1)
	}
	bat.AddHashBatch(hs)
	a, _ := seq.MarshalBinary()
	b, _ := bat.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("AddHashBatch state differs from sequential AddHash")
	}
}

// The weighted block kernel pairs every cell with its item's weight in
// whichever order the layout streams cells, and leaves the conservative
// update scalar: each shape must match AddHash item by item, at sizes
// on both sides of a CellsBatch chunk and at a depth past its buffer.
func TestCountMinAddWeightedHashBatchMatchesSequential(t *testing.T) {
	for _, l := range []Layout{
		{Width: 1024, Depth: 5, Seed: 3},
		{Width: 1024, Depth: 5, Seed: 3, Mode: KWise},
		{Width: 1024, Depth: 5, Seed: 3, Mode: Fused},
		{Width: 64, Depth: 1, Seed: 3},
		{Width: 8, Depth: StackDepth + 8, Seed: 3},
	} {
		for _, conservative := range []bool{false, true} {
			for _, n := range []int{0, 1, 204, 205, 1024, 4097} {
				hs, ws := make([]uint64, n), make([]uint64, n)
				for i := range hs {
					hs[i] = hashx.HashUint64(uint64(i%300), 99)
					ws[i] = hashx.HashUint64(uint64(i), 7) >> (8 + i%56)
				}
				seq, bat := NewCountMinLayout(l), NewCountMinLayout(l)
				seq.SetConservative(conservative)
				bat.SetConservative(conservative)
				for i, h := range hs {
					seq.AddHash(h, ws[i])
				}
				bat.AddWeightedHashBatch(hs, ws)
				a, _ := seq.MarshalBinary()
				b, _ := bat.MarshalBinary()
				if !bytes.Equal(a, b) {
					t.Fatalf("%v conservative=%v n=%d: AddWeightedHashBatch state differs from sequential AddHash", l, conservative, n)
				}
			}
		}
	}
}

func TestCountMinStringMatchesBytes(t *testing.T) {
	viaBytes := NewCountMin(1024, 5, 3)
	viaString := NewCountMin(1024, 5, 3)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("string-equiv-%06d", i)
		viaBytes.Add([]byte(key), 1)
		viaString.AddString(key)
	}
	a, _ := viaBytes.MarshalBinary()
	b, _ := viaString.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("AddString state differs from Add on the same keys")
	}
}

// skewedStream feeds a deterministic skewed stream (item i appears
// total/(i+1) times) and returns the exact counts.
func skewedStream(add func(item uint64, weight uint64)) map[uint64]uint64 {
	truth := make(map[uint64]uint64)
	for i := uint64(0); i < 500; i++ {
		w := 5000 / (i + 1)
		add(i, w)
		truth[i] = w
	}
	return truth
}

func TestCountMinDerivedAndKWiseBothWithinBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		cm   *CountMin
	}{
		{"derived", NewCountMin(2048, 5, 11)},
		{"kwise", NewCountMinLayout(Layout{Width: 2048, Depth: 5, Mode: KWise, Seed: 11})},
	} {
		truth := skewedStream(func(item, w uint64) { tc.cm.AddUint64(item, w) })
		bound := uint64(tc.cm.ErrorBound()) + 1
		for item, want := range truth {
			got := tc.cm.EstimateUint64(item)
			if got < want {
				t.Fatalf("%s: estimate(%d) = %d underestimates true %d", tc.name, item, got, want)
			}
			if got > want+bound {
				t.Errorf("%s: estimate(%d) = %d exceeds %d + bound %d", tc.name, item, got, want, bound)
			}
		}
	}
}

func TestCountMinModeRoundTripAndMergeGuard(t *testing.T) {
	derived := NewCountMin(512, 4, 5)
	kwise := NewCountMinLayout(Layout{Width: 512, Depth: 4, Mode: KWise, Seed: 5})
	for i := uint64(0); i < 1000; i++ {
		derived.AddUint64(i, 1)
		kwise.AddUint64(i, 1)
	}
	for _, tc := range []struct {
		name string
		cm   *CountMin
	}{{"derived", derived}, {"kwise", kwise}} {
		data, err := tc.cm.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back CountMin
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if back.layout.Mode != tc.cm.layout.Mode {
			t.Fatalf("%s: round-trip flipped the mode to %v", tc.name, back.layout.Mode)
		}
		if got, want := back.EstimateUint64(7), tc.cm.EstimateUint64(7); got != want {
			t.Fatalf("%s: round-trip estimate %d != %d", tc.name, got, want)
		}
		round, _ := back.MarshalBinary()
		if !bytes.Equal(round, data) {
			t.Fatalf("%s: second marshal differs", tc.name)
		}
	}
	if err := derived.Merge(kwise); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("Merge(derived, kwise) = %v, want ErrIncompatible", err)
	}
}

func TestCountMinVersion1DecodesAsKWise(t *testing.T) {
	// Hand-write a version-1 envelope (no mode byte): it must decode as
	// a KWise sketch whose estimates match a live KWise twin.
	ref := NewCountMinLayout(Layout{Width: 256, Depth: 4, Mode: KWise, Seed: 9})
	for i := uint64(0); i < 500; i++ {
		ref.AddUint64(i%50, 1)
	}
	w := core.NewWriter(core.TagCountMin, 1)
	w.U32(uint32(ref.Width()))
	w.U32(uint32(ref.Depth()))
	w.U64(ref.Seed())
	w.U64(ref.n)
	w.U8(0) // conservative=false; v1 ends here, before the mode byte
	for r := 0; r < ref.Depth(); r++ {
		w.U64Slice(ref.cells[r*ref.Width() : (r+1)*ref.Width()])
	}
	var back CountMin
	if err := back.UnmarshalBinary(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if back.layout.Mode != KWise {
		t.Fatal("version-1 payload decoded as derived; want KWise")
	}
	for i := uint64(0); i < 50; i++ {
		if got, want := back.EstimateUint64(i), ref.EstimateUint64(i); got != want {
			t.Fatalf("estimate(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestCountSketchModeRoundTripAndMergeGuard(t *testing.T) {
	derived := NewCountSketch(512, 5, 5)
	kwise := NewCountSketchLayout(Layout{Width: 512, Depth: 5, Mode: KWise, Seed: 5})
	for i := uint64(0); i < 1000; i++ {
		derived.AddUint64(i%100, 1)
		kwise.AddUint64(i%100, 1)
	}
	for _, tc := range []struct {
		name string
		cs   *CountSketch
	}{{"derived", derived}, {"kwise", kwise}} {
		data, err := tc.cs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back CountSketch
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if back.layout.Mode != tc.cs.layout.Mode {
			t.Fatalf("%s: round-trip flipped the mode", tc.name)
		}
		if got, want := back.EstimateUint64(7), tc.cs.EstimateUint64(7); got != want {
			t.Fatalf("%s: round-trip estimate %d != %d", tc.name, got, want)
		}
	}
	if err := derived.Merge(kwise); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("Merge(derived, kwise) = %v, want ErrIncompatible", err)
	}
}

func TestCountSketchDerivedAccuracy(t *testing.T) {
	cs := NewCountSketch(2048, 5, 13)
	truth := skewedStream(func(item, w uint64) { cs.AddUint64(item, int64(w)) })
	bound := int64(3 * cs.ErrorBoundL2()) // median of 5 rows, 3σ slack
	for item, want := range truth {
		got := cs.EstimateUint64(item)
		if got < int64(want)-bound || got > int64(want)+bound {
			t.Errorf("derived estimate(%d) = %d, true %d, allowed ±%d", item, got, want, bound)
		}
	}
}

// The pre-hashed contract: Add(item, w) == AddHash(XXHash64(item, seed), w)
// in BOTH row-hash modes, so pipelines that pre-hash items may freely mix
// AddHash writes with Estimate(item) reads. A reviewer caught derived mode
// breaking this (Add hashed with Murmur3_128 while AddHash derived from h),
// which silently routed pre-hashed writes to different buckets.
func TestCountMinAddHashMatchesAdd(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *CountMin
	}{
		{"derived", func() *CountMin { return NewCountMin(1024, 5, 21) }},
		{"kwise", func() *CountMin { return NewCountMinLayout(Layout{Width: 1024, Depth: 5, Mode: KWise, Seed: 21}) }},
	} {
		viaItem, viaHash := tc.mk(), tc.mk()
		for i := 0; i < 2000; i++ {
			item := []byte(fmt.Sprintf("prehash-equiv-%06d", i))
			viaItem.Add(item, 3)
			viaHash.AddHash(hashx.XXHash64(item, viaHash.Seed()), 3)
		}
		a, _ := viaItem.MarshalBinary()
		b, _ := viaHash.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: AddHash(XXHash64(item)) state differs from Add(item)", tc.name)
		}
		probe := []byte("prehash-equiv-000042")
		if got, want := viaHash.Estimate(probe), viaItem.Estimate(probe); got != want {
			t.Fatalf("%s: Estimate after AddHash writes = %d, want %d", tc.name, got, want)
		}
	}
}

func TestCountSketchAddHashMatchesAdd(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *CountSketch
	}{
		{"derived", func() *CountSketch { return NewCountSketch(1024, 5, 23) }},
		{"kwise", func() *CountSketch { return NewCountSketchLayout(Layout{Width: 1024, Depth: 5, Mode: KWise, Seed: 23}) }},
	} {
		viaItem, viaHash := tc.mk(), tc.mk()
		for i := 0; i < 2000; i++ {
			item := []byte(fmt.Sprintf("cs-prehash-%06d", i))
			viaItem.Add(item, 2)
			viaHash.AddHash(hashx.XXHash64(item, 23), 2)
		}
		a, _ := viaItem.MarshalBinary()
		b, _ := viaHash.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: AddHash(XXHash64(item)) state differs from Add(item)", tc.name)
		}
		if got, want := viaHash.Estimate([]byte("cs-prehash-000042")), viaItem.Estimate([]byte("cs-prehash-000042")); got != want {
			t.Fatalf("%s: Estimate after AddHash writes = %d, want %d", tc.name, got, want)
		}
	}
}

// Derived-mode signs draw one bit per row from a single 64-bit word, so
// the constructor must refuse depths that would wrap and correlate rows.
func TestCountSketchDepthCap(t *testing.T) {
	if got := NewCountSketch(16, 63, 1).Depth(); got != 63 {
		t.Fatalf("depth 63 accepted as %d", got)
	}
	for _, depth := range []int{64, 65, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCountSketch(depth=%d) did not panic", depth)
				}
			}()
			NewCountSketch(16, depth, 1)
		}()
	}
	// A hand-built derived-mode envelope past the cap must be rejected.
	w := core.NewWriter(core.TagCountSketch, 2)
	w.U32(4)  // width
	w.U32(65) // depth: legal for kwise payloads, not for derived
	w.U64(1)  // seed
	w.U64(0)  // n
	w.U8(0)   // mode byte: derived
	for i := 0; i < 65; i++ {
		w.I64Slice(make([]int64, 4))
	}
	var back CountSketch
	if err := back.UnmarshalBinary(w.Bytes()); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("derived depth-65 payload: err = %v, want ErrCorrupt", err)
	}
}
