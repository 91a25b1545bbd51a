package cardinality

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestFMAccuracy(t *testing.T) {
	f := NewFM(1024, 1)
	const n = 200000
	for i := 0; i < n; i++ {
		f.AddUint64(uint64(i))
	}
	if err := core.RelErr(f.Estimate(), n); err > 4*f.StandardError() {
		t.Errorf("FM rel err %.4f exceeds 4 sigma (%.4f)", err, 4*f.StandardError())
	}
}

func TestFMDuplicatesDoNotInflate(t *testing.T) {
	f := NewFM(256, 2)
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 5000; i++ {
			f.AddUint64(uint64(i))
		}
	}
	if err := core.RelErr(f.Estimate(), 5000); err > 4*f.StandardError() {
		t.Errorf("FM with duplicates rel err %.4f", err)
	}
}

func TestFMPanics(t *testing.T) {
	for _, m := range []int{0, 1, 3, 100, 1 << 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFM(%d) should panic", m)
				}
			}()
			NewFM(m, 1)
		}()
	}
}

func TestLogLogAccuracy(t *testing.T) {
	l := NewLogLog(12, 4)
	const n = 500000
	for i := 0; i < n; i++ {
		l.AddUint64(uint64(i))
	}
	if err := core.RelErr(l.Estimate(), n); err > 4*l.StandardError() {
		t.Errorf("LogLog rel err %.4f exceeds 4 sigma (%.4f)", err, 4*l.StandardError())
	}
}

func TestLogLogMerge(t *testing.T) {
	a, b, whole := NewLogLog(10, 5), NewLogLog(10, 5), NewLogLog(10, 5)
	for i := 0; i < 100000; i++ {
		if i < 50000 {
			a.AddUint64(uint64(i))
		} else {
			b.AddUint64(uint64(i))
		}
		whole.AddUint64(uint64(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != whole.Estimate() {
		t.Error("LogLog merge is not lossless")
	}
}

func TestLogLogSerialization(t *testing.T) {
	l := NewLogLog(8, 6)
	for i := 0; i < 5000; i++ {
		l.AddUint64(uint64(i))
	}
	data, _ := l.MarshalBinary()
	var g LogLog
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.Estimate() != l.Estimate() {
		t.Error("LogLog round trip changed estimate")
	}
	if err := g.UnmarshalBinary(data[:5]); !errors.Is(err, core.ErrCorrupt) {
		t.Error("truncated input accepted")
	}
}

func TestHLLRegisterPacking(t *testing.T) {
	// Every register index must read back what was written, including
	// word-boundary spans.
	h := NewHLL(10, 1)
	m := (1 << h.p)
	for i := 0; i < m; i++ {
		h.setRegister(i, uint8(i%61)+1)
	}
	for i := 0; i < m; i++ {
		if got := h.getRegister(i); got != uint8(i%61)+1 {
			t.Fatalf("register %d = %d, want %d", i, got, uint8(i%61)+1)
		}
	}
}

func TestHLLRegisterPackingProperty(t *testing.T) {
	h := NewHLL(8, 1)
	m := (1 << h.p)
	f := func(idx uint16, val uint8) bool {
		i := int(idx) % m
		v := val & 0x3f
		h.setRegister(i, v)
		return h.getRegister(i) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHLLAccuracyAcrossScales(t *testing.T) {
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		h := NewHLL(12, 7)
		for i := 0; i < n; i++ {
			h.AddUint64(uint64(i))
		}
		if err := core.RelErr(h.Estimate(), float64(n)); err > 5*h.StandardError() {
			t.Errorf("HLL n=%d rel err %.4f exceeds 5 sigma (%.4f)", n, err, 5*h.StandardError())
		}
	}
}

func TestHLLErrorScalesWithPrecision(t *testing.T) {
	// Average relative error over trials must shrink roughly as
	// 1/sqrt(m) when p increases — the E2 ladder.
	const n = 50000
	meanErr := func(p uint8) float64 {
		var total float64
		const trials = 8
		for trial := 0; trial < trials; trial++ {
			h := NewHLL(p, uint64(trial)*13+1)
			for i := 0; i < n; i++ {
				h.AddUint64(uint64(i) + uint64(trial)<<32)
			}
			total += core.RelErr(h.Estimate(), n)
		}
		return total / trials
	}
	e8, e12 := meanErr(8), meanErr(12)
	if e12 >= e8 {
		t.Errorf("error did not shrink with precision: p=8 %.4f vs p=12 %.4f", e8, e12)
	}
}

func TestHLLSmallRangeLinearCounting(t *testing.T) {
	// At tiny cardinality the corrected estimate must be near-exact
	// even though the raw estimator is badly biased.
	h := NewHLL(14, 2)
	const n = 100
	for i := 0; i < n; i++ {
		h.AddUint64(uint64(i))
	}
	if err := core.RelErr(h.Estimate(), n); err > 0.05 {
		t.Errorf("linear-counting estimate off by %.3f at n=%d", err, n)
	}
}

func TestHLLMergeEqualsUnion(t *testing.T) {
	a, b, whole := NewHLL(11, 3), NewHLL(11, 3), NewHLL(11, 3)
	for i := 0; i < 80000; i++ {
		switch i % 3 {
		case 0:
			a.AddUint64(uint64(i))
		case 1:
			b.AddUint64(uint64(i))
		default: // overlap: both shards see it
			a.AddUint64(uint64(i))
			b.AddUint64(uint64(i))
		}
		whole.AddUint64(uint64(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != whole.Estimate() {
		t.Error("HLL merge is not lossless")
	}
	if err := a.Merge(NewHLL(12, 3)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("HLL merge across precisions must fail")
	}
	if err := a.Merge(NewHLL(11, 4)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("HLL merge across seeds must fail")
	}
}

func TestHLLSizeBytes(t *testing.T) {
	h := NewHLL(14, 1)
	want := (16384*6 + 63) / 64 * 8
	if h.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d (packed 6-bit registers)", h.SizeBytes(), want)
	}
}

func TestHLLCloneIndependent(t *testing.T) {
	h := NewHLL(8, 1)
	h.AddUint64(1)
	c := h.Clone()
	for i := 0; i < 1000; i++ {
		c.AddUint64(uint64(i))
	}
	if h.Estimate() >= c.Estimate() {
		t.Error("clone updates leaked into original or clone broken")
	}
}

func TestHLLPPSparseNearExactSmall(t *testing.T) {
	// The E8 claim: HLL++ stays essentially exact at small
	// cardinalities where raw HLL is biased.
	h := NewHLLPP(14, 3)
	const n = 5000
	for i := 0; i < n; i++ {
		h.AddUint64(uint64(i))
	}
	if !h.IsSparse() {
		t.Fatal("sketch should still be sparse at n=5000, p=14")
	}
	if err := core.RelErr(h.Estimate(), n); err > 0.01 {
		t.Errorf("sparse estimate rel err %.4f, want < 1%%", err)
	}
}

func TestHLLPPDensifiesAndStaysAccurate(t *testing.T) {
	h := NewHLLPP(10, 4)
	const n = 200000
	for i := 0; i < n; i++ {
		h.AddUint64(uint64(i))
	}
	if h.IsSparse() {
		t.Fatal("sketch should have densified")
	}
	if err := core.RelErr(h.Estimate(), n); err > 5*1.04/math.Sqrt(1024) {
		t.Errorf("dense estimate rel err %.4f", err)
	}
}

func TestHLLPPConversionConsistentWithDirectDense(t *testing.T) {
	// Inserting the same items into HLL++ (through sparse->dense
	// conversion) and directly into dense HLL must yield identical
	// registers: conversion preserves all information down to rank.
	hpp := NewHLLPP(8, 5)
	hd := NewHLL(8, 5)
	const n = 10000
	for i := 0; i < n; i++ {
		hpp.AddUint64(uint64(i))
		hd.AddUint64(uint64(i))
	}
	if hpp.IsSparse() {
		t.Fatal("expected densified sketch")
	}
	for i := 0; i < (1 << hd.p); i++ {
		if hpp.dense.getRegister(i) != hd.getRegister(i) {
			t.Fatalf("register %d differs after conversion: %d vs %d",
				i, hpp.dense.getRegister(i), hd.getRegister(i))
		}
	}
}

func TestHLLPPMergeAllModes(t *testing.T) {
	mk := func(lo, hi int) *HLLPP {
		h := NewHLLPP(10, 6)
		for i := lo; i < hi; i++ {
			h.AddUint64(uint64(i))
		}
		return h
	}
	// sparse + sparse
	a := mk(0, 200)
	if err := a.Merge(mk(200, 400)); err != nil {
		t.Fatal(err)
	}
	if err := core.RelErr(a.Estimate(), 400); err > 0.02 {
		t.Errorf("sparse+sparse merge err %.4f", err)
	}
	// dense + sparse
	b := mk(0, 100000)
	if err := b.Merge(mk(100000, 100200)); err != nil {
		t.Fatal(err)
	}
	if err := core.RelErr(b.Estimate(), 100200); err > 0.2 {
		t.Errorf("dense+sparse merge err %.4f", err)
	}
	// sparse + dense
	c := mk(0, 200)
	if err := c.Merge(mk(200, 100200)); err != nil {
		t.Fatal(err)
	}
	if c.IsSparse() {
		t.Error("sparse+dense merge should densify")
	}
	// incompatible
	if err := a.Merge(NewHLLPP(11, 6)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across precisions must fail")
	}
}

func TestHLLPPSerializationBothModes(t *testing.T) {
	sparse := NewHLLPP(12, 7)
	for i := 0; i < 1000; i++ {
		sparse.AddUint64(uint64(i))
	}
	data, _ := sparse.MarshalBinary()
	var g HLLPP
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !g.IsSparse() || g.Estimate() != sparse.Estimate() {
		t.Error("sparse round trip broken")
	}

	dense := NewHLLPP(8, 7)
	for i := 0; i < 50000; i++ {
		dense.AddUint64(uint64(i))
	}
	data2, _ := dense.MarshalBinary()
	var g2 HLLPP
	if err := g2.UnmarshalBinary(data2); err != nil {
		t.Fatal(err)
	}
	if g2.IsSparse() || g2.Estimate() != dense.Estimate() {
		t.Error("dense round trip broken")
	}
}

func TestKMVAccuracy(t *testing.T) {
	s := NewKMV(1024, 8)
	const n = 300000
	for i := 0; i < n; i++ {
		s.AddUint64(uint64(i))
	}
	if err := core.RelErr(s.Estimate(), n); err > 4*s.StandardError() {
		t.Errorf("KMV rel err %.4f exceeds 4 sigma (%.4f)", err, 4*s.StandardError())
	}
}

func TestKMVExactBelowK(t *testing.T) {
	s := NewKMV(100, 9)
	for i := 0; i < 50; i++ {
		s.AddUint64(uint64(i))
		s.AddUint64(uint64(i)) // duplicates ignored
	}
	if s.Estimate() != 50 {
		t.Errorf("estimate %.0f below k, want exact 50", s.Estimate())
	}
}

func TestKMVMergeEqualsUnion(t *testing.T) {
	a, b, whole := NewKMV(256, 10), NewKMV(256, 10), NewKMV(256, 10)
	for i := 0; i < 50000; i++ {
		if i%2 == 0 {
			a.AddUint64(uint64(i))
		} else {
			b.AddUint64(uint64(i))
		}
		whole.AddUint64(uint64(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != whole.Estimate() {
		t.Error("KMV merge is not lossless")
	}
}

func TestKMVSerialization(t *testing.T) {
	s := NewKMV(64, 12)
	for i := 0; i < 10000; i++ {
		s.AddUint64(uint64(i))
	}
	data, _ := s.MarshalBinary()
	var g KMV
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.Estimate() != s.Estimate() {
		t.Error("KMV round trip changed estimate")
	}
	// Corrupt sortedness check.
	bad := append([]byte(nil), data...)
	// Swap two value bytes deep in the payload to break ordering.
	bad[len(bad)-1], bad[len(bad)-9] = bad[len(bad)-9], bad[len(bad)-1]
	var h KMV
	if err := h.UnmarshalBinary(bad); err == nil {
		// Swapping may coincidentally preserve order; only assert when changed.
		if len(h.vals) >= 2 && h.vals[len(h.vals)-1] <= h.vals[len(h.vals)-2] {
			t.Error("unsorted values accepted")
		}
	}
}

func TestSpaceAccuracyLadder(t *testing.T) {
	// E2 in miniature: at equal substream counts (m=1024), HLL uses
	// less memory than LogLog which uses less than FM, while accuracy
	// stays in the same ballpark.
	fm := NewFM(1024, 1)
	ll := NewLogLog(10, 1)
	hll := NewHLL(10, 1)
	if !(hll.SizeBytes() < ll.SizeBytes() && ll.SizeBytes() < fm.SizeBytes()) {
		t.Errorf("space ladder violated: fm=%d ll=%d hll=%d",
			fm.SizeBytes(), ll.SizeBytes(), hll.SizeBytes())
	}
	if !(hll.StandardError() < ll.StandardError()) {
		t.Error("HLL should have a better error constant than LogLog")
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := NewHLL(14, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AddUint64(uint64(i))
	}
}

func BenchmarkHLLEstimate(b *testing.B) {
	h := NewHLL(14, 1)
	for i := 0; i < 1000000; i++ {
		h.AddUint64(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Estimate()
	}
}

func BenchmarkKMVAdd(b *testing.B) {
	s := NewKMV(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddUint64(uint64(i))
	}
}

func ExampleHLL() {
	h := NewHLL(14, 42)
	for i := 0; i < 100000; i++ {
		h.AddString(fmt.Sprintf("user-%d", i))
	}
	est := h.Estimate()
	fmt.Println(est > 98000 && est < 102000)
	// Output: true
}
