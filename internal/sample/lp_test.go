package sample

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

func TestLpSamplerL1Distribution(t *testing.T) {
	// Items 0..9 with weights 1..10: inclusion frequency over many
	// independent samplers must be proportional to weight (p=1).
	const domain = 10
	const trials = 3000
	counts := make([]int, domain)
	for trial := 0; trial < trials; trial++ {
		s := NewLpSampler(1, 256, 5, uint64(trial)+1)
		for i := uint64(0); i < domain; i++ {
			s.Update(i, float64(i+1))
		}
		idx, _, ok := s.Sample(domain)
		if !ok {
			t.Fatal("sampler failed")
		}
		counts[idx]++
	}
	total := 55.0 // sum 1..10
	for i := 0; i < domain; i++ {
		want := float64(i+1) / total
		got := float64(counts[i]) / trials
		sigma := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 6*sigma+0.01 {
			t.Errorf("item %d: sampled %.4f, want %.4f", i, got, want)
		}
	}
}

func TestLpSamplerL2Distribution(t *testing.T) {
	// p=2: inclusion ∝ weight². Weights 1,2,3 → probabilities 1/14,
	// 4/14, 9/14.
	const trials = 3000
	counts := make([]int, 3)
	for trial := 0; trial < trials; trial++ {
		s := NewLpSampler(2, 256, 5, uint64(trial)+50000)
		s.Update(0, 1)
		s.Update(1, 2)
		s.Update(2, 3)
		idx, _, ok := s.Sample(3)
		if !ok {
			t.Fatal("sampler failed")
		}
		counts[idx]++
	}
	for i, w := range []float64{1, 4, 9} {
		want := w / 14
		got := float64(counts[i]) / trials
		sigma := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 6*sigma+0.02 {
			t.Errorf("item %d: sampled %.4f, want %.4f", i, got, want)
		}
	}
}

func TestLpSamplerWeightRecovery(t *testing.T) {
	s := NewLpSampler(1, 512, 5, 7)
	s.Update(3, 100)
	s.Update(5, 1)
	idx, w, ok := s.Sample(10)
	if !ok {
		t.Fatal("sampler failed")
	}
	// With one dominant item, it is sampled and its weight recovered.
	if idx != 3 {
		t.Fatalf("sampled %d, want 3 (dominant)", idx)
	}
	if core.RelErr(w, 100) > 0.05 {
		t.Errorf("recovered weight %.1f, want ~100", w)
	}
}

func TestLpSamplerTurnstile(t *testing.T) {
	s := NewLpSampler(1, 256, 5, 8)
	for i := uint64(0); i < 100; i++ {
		s.Update(i, 2)
	}
	for i := uint64(0); i < 100; i++ {
		if i != 42 {
			s.Update(i, -2)
		}
	}
	idx, w, ok := s.Sample(100)
	if !ok || idx != 42 {
		t.Fatalf("Sample = (%d, %v), want (42, true)", idx, ok)
	}
	if core.RelErr(w, 2) > 0.1 {
		t.Errorf("weight %.2f, want ~2", w)
	}
}

func TestLpSamplerEmpty(t *testing.T) {
	s := NewLpSampler(1, 64, 3, 9)
	if _, _, ok := s.Sample(100); ok {
		t.Error("empty sampler returned a sample")
	}
}

func TestLpSamplerMerge(t *testing.T) {
	a := NewLpSampler(1, 128, 3, 10)
	b := NewLpSampler(1, 128, 3, 10)
	a.Update(7, 5)
	b.Update(7, -5)
	b.Update(9, 3)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	idx, _, ok := a.Sample(20)
	if !ok || idx != 9 {
		t.Fatalf("merged sample = (%d, %v), want (9, true)", idx, ok)
	}
	if err := a.Merge(NewLpSampler(2, 128, 3, 10)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across p must fail")
	}
}

func TestLpSamplerSpaceIndependentOfDomain(t *testing.T) {
	s := NewLpSampler(1, 256, 5, 11)
	if s.SizeBytes() != 256*5*8 {
		t.Errorf("SizeBytes = %d", s.SizeBytes())
	}
	if s.p != 1 {
		t.Error("P accessor wrong")
	}
}

func TestLpSamplerPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"p":     func() { NewLpSampler(0, 64, 3, 1) },
		"width": func() { NewLpSampler(1, 1, 3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkLpSamplerUpdate(b *testing.B) {
	s := NewLpSampler(1, 512, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i%1000), 1)
	}
}
