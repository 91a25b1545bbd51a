package frequency

// Tests for the fused cache-line layouts: the interleaved counters are
// a memory-placement change only, so overestimate guarantees, batch
// equivalence and wire round trips must all hold exactly as in the
// standard row layout — and the two layouts must never merge or decode
// into each other.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/hashx"
)

func TestCountMinFusedOverestimates(t *testing.T) {
	// Count-Min's one-sided error is layout-independent: every estimate
	// must be >= the true count, and exact counts must survive when
	// collisions are unlikely.
	cm := NewCountMinLayout(Layout{Width: 4096, Depth: 5, Mode: Fused, Seed: 1})
	truth := map[uint64]uint64{}
	for i := uint64(0); i < 2000; i++ {
		w := i%7 + 1
		cm.AddUint64(i, w)
		truth[i] += w
	}
	for item, want := range truth {
		if got := cm.EstimateUint64(item); got < want {
			t.Fatalf("fused estimate(%d) = %d underestimates true count %d", item, got, want)
		}
	}
	if cm.N() != cm.n {
		t.Fatal("N() accessor broken")
	}
}

func TestCountMinFusedBatchMatchesSequential(t *testing.T) {
	seq := NewCountMinLayout(Layout{Width: 2048, Depth: 5, Mode: Fused, Seed: 3})
	bat := NewCountMinLayout(Layout{Width: 2048, Depth: 5, Mode: Fused, Seed: 3})
	hs := make([]uint64, 1000) // spans multiple ingestChunk chunks
	for i := range hs {
		hs[i] = hashx.HashUint64(uint64(i), 3)
		seq.AddHash(hs[i], 1)
	}
	bat.AddHashBatch(hs)
	a, _ := seq.MarshalBinary()
	b, _ := bat.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("fused AddHashBatch state differs from scalar AddHash")
	}
}

func TestCountMinFusedRoundTripAndMergeGuard(t *testing.T) {
	fused := NewCountMinLayout(Layout{Width: 512, Depth: 5, Mode: Fused, Seed: 5})
	std := NewCountMin(512, 5, 5)
	for i := uint64(0); i < 1000; i++ {
		fused.AddUint64(i%100, 1)
		std.AddUint64(i%100, 1)
	}
	data, err := fused.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back CountMin
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.layout.Mode != Fused {
		t.Fatal("round trip dropped the fused layout")
	}
	round, _ := back.MarshalBinary()
	if !bytes.Equal(round, data) {
		t.Fatal("Marshal -> Decode -> Marshal is not byte-identical")
	}
	for i := uint64(0); i < 100; i++ {
		if got, want := back.EstimateUint64(i), fused.EstimateUint64(i); got != want {
			t.Fatalf("decoded estimate(%d) = %d, want %d", i, got, want)
		}
	}
	// Fused and standard sketches address different cells: merging them
	// would silently corrupt counts, so the shape check must refuse.
	if err := fused.Merge(std); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("Merge(fused, standard) = %v, want ErrIncompatible", err)
	}
	if err := std.Merge(fused); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("Merge(standard, fused) = %v, want ErrIncompatible", err)
	}
	// Same-shape fused sketches merge by counter addition.
	clone := NewCountMinLayout(Layout{Width: 512, Depth: 5, Mode: Fused, Seed: 5})
	if err := clone.Merge(fused); err != nil {
		t.Fatal(err)
	}
	cm, _ := clone.MarshalBinary()
	if !bytes.Equal(cm, data) {
		t.Fatal("merge into empty fused sketch differs from original")
	}
}

func TestCountSketchFusedRoundTripAndMergeGuard(t *testing.T) {
	fused := NewCountSketchLayout(Layout{Width: 512, Depth: 5, Mode: Fused, Seed: 5})
	std := NewCountSketch(512, 5, 5)
	for i := uint64(0); i < 1000; i++ {
		fused.AddUint64(i%100, 1)
		std.AddUint64(i%100, 1)
	}
	data, err := fused.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back CountSketch
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.layout.Mode != Fused {
		t.Fatal("round trip dropped the fused layout")
	}
	round, _ := back.MarshalBinary()
	if !bytes.Equal(round, data) {
		t.Fatal("Marshal -> Decode -> Marshal is not byte-identical")
	}
	for i := uint64(0); i < 100; i++ {
		if got, want := back.EstimateUint64(i), fused.EstimateUint64(i); got != want {
			t.Fatalf("decoded estimate(%d) = %d, want %d", i, got, want)
		}
	}
	if err := fused.Merge(std); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("Merge(fused, standard) = %v, want ErrIncompatible", err)
	}
	if err := std.Merge(fused); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("Merge(standard, fused) = %v, want ErrIncompatible", err)
	}
}

// writeCountMinV2WithMode hand-writes a version-2 Count-Min envelope
// carrying an arbitrary mode byte. Version-2 writers never produced
// mode 2, so a fused byte in a v2 envelope is corrupt by construction.
func writeCountMinV2WithMode(mode byte) []byte {
	w := core.NewWriter(core.TagCountMin, 2)
	w.U32(64) // width
	w.U32(4)  // depth
	w.U64(1)  // seed
	w.U64(0)  // n
	w.U8(0)   // conservative
	w.U8(mode)
	for i := 0; i < 4; i++ {
		w.U64Slice(make([]uint64, 64))
	}
	return w.Bytes()
}

func TestCountMinV2FusedModeByteRejected(t *testing.T) {
	var cm CountMin
	if err := cm.UnmarshalBinary(writeCountMinV2WithMode(byte(Fused))); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("v2 envelope with fused mode byte: err = %v, want ErrCorrupt", err)
	}
	// Sanity: the same envelope with a legal v2 mode byte decodes.
	if err := cm.UnmarshalBinary(writeCountMinV2WithMode(byte(Derived))); err != nil {
		t.Fatalf("legal v2 envelope rejected: %v", err)
	}
}

func TestCountSketchV2FusedModeByteRejected(t *testing.T) {
	write := func(mode byte) []byte {
		w := core.NewWriter(core.TagCountSketch, 2)
		w.U32(64) // width
		w.U32(3)  // depth
		w.U64(1)  // seed
		w.U64(0)  // n
		w.U8(mode)
		for i := 0; i < 3; i++ {
			w.I64Slice(make([]int64, 64))
		}
		return w.Bytes()
	}
	var cs CountSketch
	if err := cs.UnmarshalBinary(write(byte(Fused))); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("v2 envelope with fused mode byte: err = %v, want ErrCorrupt", err)
	}
	if err := cs.UnmarshalBinary(write(byte(Derived))); err != nil {
		t.Fatalf("legal v2 envelope rejected: %v", err)
	}
}

func TestFusedDecodeRejectsBadDims(t *testing.T) {
	writeFusedCM := func(width, depth uint32, cells int) []byte {
		w := core.NewWriter(core.TagCountMin, 3)
		w.U32(width)
		w.U32(depth)
		w.U64(1)
		w.U64(0)
		w.U8(0) // conservative
		w.U8(byte(Fused))
		w.U64Slice(make([]uint64, cells))
		return w.Bytes()
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"width not multiple of 8", writeFusedCM(60, 5, 300)},
		{"depth over fused cap", writeFusedCM(64, 22, 64*22)},
		{"cell count mismatch", writeFusedCM(64, 5, 64*5-1)},
	} {
		var cm CountMin
		if err := cm.UnmarshalBinary(tc.data); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
	// Fused Count-Sketch additionally requires odd depth: the
	// constructor only produces odd depths, and silently re-rounding an
	// even payload would detach the decoded shape from the bytes.
	writeFusedCS := func(depth uint32) []byte {
		w := core.NewWriter(core.TagCountSketch, 3)
		w.U32(64)
		w.U32(depth)
		w.U64(1)
		w.U64(0)
		w.U8(byte(Fused))
		w.I64Slice(make([]int64, 64*int(depth)))
		return w.Bytes()
	}
	var cs CountSketch
	if err := cs.UnmarshalBinary(writeFusedCS(4)); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("even fused count-sketch depth: err = %v, want ErrCorrupt", err)
	}
	if err := cs.UnmarshalBinary(writeFusedCS(5)); err != nil {
		t.Errorf("legal fused count-sketch rejected: %v", err)
	}
}

func TestCountMinFusedConservative(t *testing.T) {
	// Conservative update in the fused layout: still an overestimate,
	// never larger than the plain fused estimate.
	plain := NewCountMinLayout(Layout{Width: 1024, Depth: 5, Mode: Fused, Seed: 2})
	cons := NewCountMinLayout(Layout{Width: 1024, Depth: 5, Mode: Fused, Seed: 2})
	cons.SetConservative(true)
	truth := map[uint64]uint64{}
	for i := uint64(0); i < 3000; i++ {
		item := i % 300
		plain.AddUint64(item, 1)
		cons.AddUint64(item, 1)
		truth[item]++
	}
	for item, want := range truth {
		p, c := plain.EstimateUint64(item), cons.EstimateUint64(item)
		if c < want {
			t.Fatalf("conservative fused estimate(%d) = %d underestimates %d", item, c, want)
		}
		if c > p {
			t.Fatalf("conservative fused estimate(%d) = %d exceeds plain %d", item, c, p)
		}
	}
}
