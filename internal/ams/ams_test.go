package ams

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

func TestF2Accuracy(t *testing.T) {
	s := New(9, 128, 1)
	var want float64
	for i := uint64(0); i < 2000; i++ {
		w := int64(i%20) + 1
		s.AddUint64(i, w)
		want += float64(w) * float64(w)
	}
	if err := core.RelErr(s.F2(), want); err > 0.25 {
		t.Errorf("F2 rel err %.3f", err)
	}
}

func TestF2OnZipf(t *testing.T) {
	rng := randx.New(2)
	z := randx.NewZipf(rng, 1.3, 10000)
	s := New(9, 256, 3)
	truth := map[uint64]float64{}
	for i := 0; i < 100000; i++ {
		v := z.Next()
		s.AddUint64(v, 1)
		truth[v]++
	}
	var want float64
	for _, c := range truth {
		want += c * c
	}
	if err := core.RelErr(s.F2(), want); err > 0.2 {
		t.Errorf("F2 on zipf rel err %.3f", err)
	}
}

func TestTurnstileDeletions(t *testing.T) {
	s := New(5, 64, 4)
	for i := uint64(0); i < 100; i++ {
		s.AddUint64(i, 10)
	}
	for i := uint64(0); i < 100; i++ {
		s.AddUint64(i, -10)
	}
	// All frequencies cancelled: F2 must be exactly 0 (linearity).
	if got := s.F2(); got != 0 {
		t.Errorf("F2 after full cancellation = %v, want 0", got)
	}
}

func TestInnerProduct(t *testing.T) {
	a := New(9, 256, 5)
	b := New(9, 256, 5)
	var want float64
	for i := uint64(0); i < 1000; i++ {
		fa := int64(i%7) + 1
		fb := int64(i%3) + 1
		a.AddUint64(i, fa)
		b.AddUint64(i, fb)
		want += float64(fa) * float64(fb)
	}
	got, err := a.InnerProduct(b)
	if err != nil {
		t.Fatal(err)
	}
	if core.RelErr(got, want) > 0.25 {
		t.Errorf("inner product %.0f, want ~%.0f", got, want)
	}
	if _, err := a.InnerProduct(New(3, 64, 5)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("inner product across shapes must fail")
	}
}

func TestVarianceShrinksWithWidth(t *testing.T) {
	// Mean relative error over trials must drop when perGroup grows.
	meanErr := func(perGroup int) float64 {
		var total float64
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			s := New(1, perGroup, uint64(trial)*31+1)
			var want float64
			for i := uint64(0); i < 500; i++ {
				s.AddUint64(i, 1)
				want++
			}
			total += core.RelErr(s.F2(), want)
		}
		return total / trials
	}
	if e16, e256 := meanErr(16), meanErr(256); e256 >= e16 {
		t.Errorf("error did not shrink with width: %f vs %f", e16, e256)
	}
}

func TestPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 5, 1)
}

func TestF2EmptyStream(t *testing.T) {
	s := New(3, 16, 11)
	if s.F2() != 0 {
		t.Errorf("empty F2 = %v", s.F2())
	}
	if math.Abs(s.F2()) > 0 || s.N() != 0 {
		t.Error("empty sketch state wrong")
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(5, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddUint64(uint64(i), 1)
	}
}

func BenchmarkF2(b *testing.B) {
	s := New(9, 256, 1)
	for i := uint64(0); i < 10000; i++ {
		s.AddUint64(i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.F2()
	}
}
