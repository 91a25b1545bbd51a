package frequency

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hashx"
)

// everyLayout is each mode, unsigned and in Count Sketch's signed
// variant, at a width that fused rounds up and a depth past one chunk's
// worth of BatchCells / 256 items.
func everyLayout(t *testing.T) []Layout {
	t.Helper()
	var out []Layout
	for _, mode := range []Mode{Derived, KWise, Fused} {
		for _, signed := range []bool{false, true} {
			l, err := Layout{Width: 203, Depth: 5, Mode: mode, Seed: 17}.build(signed)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, l)
		}
	}
	return out
}

// The batch resolver may emit indices in any order (counter adds
// commute) but must emit exactly the scalar resolver's.
func TestLayoutBatchResolvesTheScalarCells(t *testing.T) {
	hs := make([]uint64, 700) // several chunks, the last one short
	for i := range hs {
		hs[i] = hashx.HashUint64(uint64(i%300), 5)
	}
	for _, l := range everyLayout(t) {
		var want, got []uint32
		for _, h := range hs {
			want = append(want, l.Cells(h, nil)...)
		}
		var buf [BatchCells]uint32
		for rest := hs; len(rest) > 0; {
			idx, n := l.CellsBatch(rest, buf[:])
			if n < 1 || len(idx) != n*l.Depth {
				t.Fatalf("%v: CellsBatch took %d hashes, %d indices", &l, n, len(idx))
			}
			got = append(got, idx...)
			rest = rest[n:]
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%v signed=%v: batch and scalar resolvers disagree", &l, l.signed)
		}
	}
}

// Row r's cell lies in row r's runs, its bucket is in range, and the
// runs of all rows tile the table exactly once.
func TestLayoutRowsTileTheTable(t *testing.T) {
	for _, l := range everyLayout(t) {
		rowOf := make([]int, l.Len())
		for j := range rowOf {
			rowOf[j] = -1
		}
		for r := 0; r < l.Depth; r++ {
			width := 0
			l.rowRuns(r, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					if rowOf[j] != -1 {
						t.Fatalf("%v: cell %d in rows %d and %d", &l, j, rowOf[j], r)
					}
					rowOf[j] = r
					if b := l.bucket(r, j); b != width {
						t.Fatalf("%v: row %d cell %d has bucket %d, want %d", &l, r, j, b, width)
					}
					width++
				}
			})
			if width != l.Width {
				t.Fatalf("%v: row %d has %d cells", &l, r, width)
			}
		}
		for i := uint64(0); i < 500; i++ {
			for r, j := range l.Cells(hashx.HashUint64(i, 3), nil) {
				if rowOf[j] != r {
					t.Fatalf("%v: row %d resolved to cell %d of row %d", &l, r, j, rowOf[j])
				}
			}
		}
	}
}

func TestLayoutBuild(t *testing.T) {
	l, err := Layout{Width: 203, Depth: fusedMaxDepth, Mode: Fused}.Build()
	if err != nil || l.Width != 208 {
		t.Fatalf("fused 203x%d built as %v, %v; want width 208", fusedMaxDepth, &l, err)
	}
	for name, bad := range map[string]Layout{
		"zero width":      {Width: 0, Depth: 4},
		"negative depth":  {Width: 8, Depth: -1},
		"fused too deep":  {Width: 64, Depth: fusedMaxDepth + 1, Mode: Fused},
		"unknown mode":    {Width: 64, Depth: 4, Mode: Fused + 1},
		"past 2^32 cells": {Width: 1 << 30, Depth: 4},
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("%s: built", name)
		}
	}
}

// A decoded table is read straight into its one allocation: the
// envelope of a w×d sketch decodes in under 1.25× the table's bytes
// (it was 2×: a zeroed grid from the constructor, then the rows) and in
// a fixed handful of allocations — the table, the decoded value, and a
// sign-row or second-stage block where the family has one.
func TestDecodeAllocatesTheTableOnce(t *testing.T) {
	type sketch interface {
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
		SizeBytes() int
	}
	for name, tc := range map[string]struct {
		sk     sketch
		allocs float64
	}{
		"countmin":          {NewCountMin(65536, 4, 1), 2},
		"countmin fused":    {NewCountMinLayout(Layout{Width: 65536, Depth: 4, Mode: Fused, Seed: 1}), 2},
		"countsketch":       {NewCountSketch(65536, 5, 1), 3},
		"countsketch fused": {NewCountSketchLayout(Layout{Width: 65536, Depth: 5, Mode: Fused, Seed: 1}), 3},
		"sfsketch":          {NewSFSketch(8192, 4, 65536, 4, 1), 3},
	} {
		sk := tc.sk
		env, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := sk.UnmarshalBinary(env); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(sk.SizeBytes())*5/4; got >= limit {
			t.Errorf("%s: decode allocates %d B for a %d B table", name, got, sk.SizeBytes())
		}
		if got := testing.AllocsPerRun(3, func() { _ = sk.UnmarshalBinary(env) }); got > tc.allocs {
			t.Errorf("%s: decode makes %v allocations, want at most %v", name, got, tc.allocs)
		}
	}
}

func TestFusedCountSketchDecodeRejectsDepthOverCap(t *testing.T) {
	w := core.NewWriter(core.TagCountSketch, 3)
	w.U32(64)
	w.U32(fusedMaxDepth + 2) // odd, so only the cap can refuse it
	w.U64(1)
	w.U64(0)
	w.U8(byte(Fused))
	w.I64Slice(make([]int64, 64*(fusedMaxDepth+2)))
	var cs CountSketch
	if err := cs.UnmarshalBinary(w.Bytes()); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("fused count-sketch depth %d: err = %v, want ErrCorrupt", fusedMaxDepth+2, err)
	}
}
