package fetchsgd

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

func TestGradSketchUnbiasedEstimate(t *testing.T) {
	const d = 2048
	s := NewGradSketch(5, 512, 1)
	vec := make([]float64, d)
	rng := randx.New(2)
	// Sparse vector: 20 spikes.
	for i := 0; i < 20; i++ {
		vec[rng.Intn(d)] = rng.Normal() * 10
	}
	s.Accumulate(vec, 1)
	for j, v := range vec {
		if v == 0 {
			continue
		}
		got := s.Estimate(j)
		if math.Abs(got-v) > 1.5 {
			t.Errorf("coord %d: estimate %.3f, want %.3f", j, got, v)
		}
	}
}

func TestGradSketchTopKRecovery(t *testing.T) {
	const d = 4096
	s := NewGradSketch(7, 1024, 3)
	vec := make([]float64, d)
	// 10 heavy coordinates among small noise.
	heavy := map[int]float64{}
	rng := randx.New(4)
	for i := 0; i < 10; i++ {
		j := rng.Intn(d)
		vec[j] = 100 + float64(i)
		heavy[j] = vec[j]
	}
	for i := 0; i < 200; i++ {
		j := rng.Intn(d)
		if vec[j] == 0 {
			vec[j] = rng.Normal() * 0.1
		}
	}
	s.Accumulate(vec, 1)
	top := s.TopK(d, 10)
	found := 0
	for j := range heavy {
		if _, ok := top[j]; ok {
			found++
		}
	}
	if found < 9 {
		t.Errorf("top-k recovered %d/10 heavy coordinates", found)
	}
}

func TestGradSketchLinearity(t *testing.T) {
	const d = 512
	a := NewGradSketch(5, 128, 5)
	b := NewGradSketch(5, 128, 5)
	whole := NewGradSketch(5, 128, 5)
	va := make([]float64, d)
	vb := make([]float64, d)
	rng := randx.New(6)
	for j := 0; j < d; j++ {
		va[j] = rng.Normal()
		vb[j] = rng.Normal()
	}
	a.Accumulate(va, 1)
	b.Accumulate(vb, 1)
	whole.Accumulate(va, 1)
	whole.Accumulate(vb, 1)
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 20; j++ {
		if math.Abs(a.Estimate(j)-whole.Estimate(j)) > 1e-9 {
			t.Fatal("merged sketch disagrees with single sketch")
		}
	}
	if err := a.Add(NewGradSketch(5, 128, 6)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across seeds must fail")
	}
}

func TestGradSketchSubtractSparse(t *testing.T) {
	s := NewGradSketch(5, 256, 7)
	vec := make([]float64, 100)
	vec[3] = 42
	vec[77] = -17
	s.Accumulate(vec, 1)
	s.SubtractSparse(map[int]float64{3: 42, 77: -17})
	for j := 0; j < 100; j++ {
		if math.Abs(s.Estimate(j)) > 1e-9 {
			t.Fatalf("coord %d not cancelled: %v", j, s.Estimate(j))
		}
	}
}

func TestWorkerGradientDescentDirection(t *testing.T) {
	task := NewTask(64, 8, 0.01, 9)
	workers := NewWorkers(task, 4, 400, 10)
	w := make([]float64, task.Dim) // zero model
	lossBefore := Loss(workers, w)
	// One aggregated gradient step must reduce loss.
	agg := make([]float64, task.Dim)
	for _, wk := range workers {
		g := wk.Gradient(w)
		for j := range agg {
			agg[j] += g[j] / float64(len(workers))
		}
	}
	for j := range w {
		w[j] -= 0.1 * agg[j]
	}
	if lossAfter := Loss(workers, w); lossAfter >= lossBefore {
		t.Errorf("gradient step increased loss: %.4f -> %.4f", lossBefore, lossAfter)
	}
}

func TestUncompressedTrainingConverges(t *testing.T) {
	task := NewTask(256, 16, 0.05, 11)
	workers := NewWorkers(task, 8, 1024, 12)
	res := TrainUncompressed(task, workers, 60, 0.3)
	if res.FinalLoss > 0.05 {
		t.Errorf("uncompressed final loss %.4f too high", res.FinalLoss)
	}
	if res.BytesPerRound != 256*8 {
		t.Errorf("bytes per round %d", res.BytesPerRound)
	}
}

func TestFetchSGDMatchesAccuracyAtLowerCost(t *testing.T) {
	// E16's headline: the sketched run communicates ~3x less per round
	// and still converges to a comparable loss on a sparse task. The
	// learning rate must satisfy (1−lr)² + lr²·(d/cols) < 1 — the
	// stability condition of the unsketch-noise analysis in train.go.
	task := NewTask(1024, 12, 0.05, 13)
	workers := NewWorkers(task, 8, 2048, 14)
	base := TrainUncompressed(task, workers, 300, 0.3)
	cfg := FetchSGDConfig{Rows: 5, Cols: 128, K: 64, LR: 0.05, Momentum: 0.5, Seed: 15}
	// Rows*Cols*8 = 5120 bytes vs 8192 uncompressed.
	sk := TrainFetchSGD(task, workers, 300, cfg)
	if sk.BytesPerRound >= base.BytesPerRound {
		t.Fatalf("sketched run not cheaper: %d vs %d bytes", sk.BytesPerRound, base.BytesPerRound)
	}
	noise := 0.05 * 0.05
	if sk.FinalLoss > 5*base.FinalLoss+2*noise {
		t.Errorf("fetchsgd loss %.4f too far above baseline %.4f", sk.FinalLoss, base.FinalLoss)
	}
	// It must also have actually learned something substantial.
	zero := Loss(workers, make([]float64, task.Dim))
	if sk.FinalLoss > zero/100 {
		t.Errorf("fetchsgd barely learned: %.4f vs initial %.4f", sk.FinalLoss, zero)
	}
}

func TestFetchSGDConvergesAtHigherCompression(t *testing.T) {
	// 3.2x compression with a correspondingly smaller learning rate
	// still converges, just more slowly — the tradeoff curve of E16.
	task := NewTask(1024, 12, 0.05, 16)
	workers := NewWorkers(task, 4, 1024, 17)
	cfg := FetchSGDConfig{Rows: 5, Cols: 64, K: 64, LR: 0.03, Momentum: 0.5, Seed: 18}
	full := TrainFetchSGD(task, workers, 300, cfg)
	if math.IsNaN(full.FinalLoss) {
		t.Fatal("training diverged")
	}
	zero := Loss(workers, make([]float64, task.Dim))
	if full.FinalLoss > zero/10 {
		t.Errorf("fetchsgd at 3.2x compression failed to learn: %.4f vs initial %.4f",
			full.FinalLoss, zero)
	}
}

func TestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGradSketch(0, 4, 1)
}

func BenchmarkGradSketchAccumulate(b *testing.B) {
	s := NewGradSketch(5, 1024, 1)
	vec := make([]float64, 4096)
	rng := randx.New(1)
	for j := range vec {
		vec[j] = rng.Normal()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Accumulate(vec, 1)
	}
}

func BenchmarkTopK(b *testing.B) {
	s := NewGradSketch(5, 1024, 1)
	vec := make([]float64, 4096)
	rng := randx.New(1)
	for j := range vec {
		vec[j] = rng.Normal()
	}
	s.Accumulate(vec, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(4096, 64)
	}
}
