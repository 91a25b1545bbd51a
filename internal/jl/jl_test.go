package jl

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// randomPoints draws n random points in R^d with varied scales.
func randomPoints(n, d int, seed uint64) [][]float64 {
	rng := randx.New(seed)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		scale := math.Exp(rng.Normal())
		for j := range pts[i] {
			pts[i][j] = rng.Normal() * scale
		}
	}
	return pts
}

func checkDistancePreservation(t *testing.T, tr Transform, pts [][]float64, eps float64) {
	t.Helper()
	projected := make([][]float64, len(pts))
	for i, p := range pts {
		projected[i] = tr.Apply(p)
	}
	violations, pairs := 0, 0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			orig := Distance(pts[i], pts[j])
			proj := Distance(projected[i], projected[j])
			pairs++
			if math.Abs(proj-orig) > eps*orig {
				violations++
			}
		}
	}
	// The union bound is loose; allow a 5% violation rate at the
	// nominal eps.
	if violations > pairs/20 {
		t.Errorf("%d/%d pairs violated (1±%.2f) distortion", violations, pairs, eps)
	}
}

// targetDim is the standard JL output dimension ⌈8·ln(n)/ε²⌉,
// sufficient to preserve all pairwise distances among n points within
// (1±ε).
func targetDim(n int, eps float64) int {
	return int(math.Ceil(8 * math.Log(float64(n)) / (eps * eps)))
}

func TestGaussianDistancePreservation(t *testing.T) {
	const n, d, eps = 30, 500, 0.25
	k := targetDim(n, eps)
	tr := NewGaussian(d, k, 1)
	checkDistancePreservation(t, tr, randomPoints(n, d, 2), eps)
}

func TestRademacherDistancePreservation(t *testing.T) {
	const n, d, eps = 30, 500, 0.25
	k := targetDim(n, eps)
	tr := NewRademacher(d, k, 3)
	checkDistancePreservation(t, tr, randomPoints(n, d, 4), eps)
}

func TestSparseDistancePreservation(t *testing.T) {
	const n, d, eps = 30, 500, 0.25
	k := targetDim(n, eps)
	k = (k/8 + 1) * 8 // make divisible by sparsity 8
	tr := NewSparse(d, k, 8, 5)
	checkDistancePreservation(t, tr, randomPoints(n, d, 6), eps)
}

func TestNormPreservationStatistics(t *testing.T) {
	// E[||Ax||²] = ||x||² for all three transforms.
	const d, k, trials = 200, 256, 50
	x := randomPoints(1, d, 7)[0]
	want := norm(x)
	for name, mk := range map[string]func(seed uint64) Transform{
		"gaussian":   func(s uint64) Transform { return NewGaussian(d, k, s) },
		"rademacher": func(s uint64) Transform { return NewRademacher(d, k, s) },
		"sparse":     func(s uint64) Transform { return NewSparse(d, k, 8, s) },
	} {
		var sumSq float64
		for trial := 0; trial < trials; trial++ {
			y := mk(uint64(trial) + 10).Apply(x)
			sumSq += norm(y) * norm(y)
		}
		meanSq := sumSq / trials
		if math.Abs(meanSq-want*want)/(want*want) > 0.15 {
			t.Errorf("%s: mean ||Ax||² = %.4f, want %.4f", name, meanSq, want*want)
		}
	}
}

func TestSparseTouchesOnlySCoordinates(t *testing.T) {
	const d, k, s = 100, 64, 4
	tr := NewSparse(d, k, s, 8)
	// A one-hot input must produce at most s nonzeros.
	x := make([]float64, d)
	x[37] = 1
	y := tr.Apply(x)
	nz := 0
	for _, v := range y {
		if v != 0 {
			nz++
		}
	}
	if nz > s {
		t.Errorf("one-hot input produced %d nonzeros, want <= %d", nz, s)
	}
	if nz == 0 {
		t.Error("projection lost the input entirely")
	}
}

func TestTransformLinearity(t *testing.T) {
	const d, k = 50, 32
	tr := NewSparse(d, k, 4, 9)
	a := randomPoints(1, d, 10)[0]
	b := randomPoints(1, d, 11)[0]
	sum := make([]float64, d)
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	ya, yb, ys := tr.Apply(a), tr.Apply(b), tr.Apply(sum)
	for i := range ys {
		if math.Abs(ys[i]-(ya[i]+yb[i])) > 1e-9 {
			t.Fatal("transform is not linear")
		}
	}
}

func TestApplyPanicsOnWrongDim(t *testing.T) {
	tr := NewGaussian(10, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Apply(make([]float64, 11))
}

func TestSparsePanicsWhenSNotDividesK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSparse(10, 10, 3, 1)
}

func TestDims(t *testing.T) {
	g := NewGaussian(7, 3, 1)
	if g.InputDim() != 7 || g.OutputDim() != 3 {
		t.Error("dense dims wrong")
	}
	s := NewSparse(8, 4, 2, 1)
	if s.InputDim() != 8 || s.OutputDim() != 4 || s.s != 2 {
		t.Error("sparse dims wrong")
	}
}

func BenchmarkDenseApply(b *testing.B) {
	tr := NewGaussian(1024, 128, 1)
	x := randomPoints(1, 1024, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Apply(x)
	}
}

func BenchmarkSparseApply(b *testing.B) {
	tr := NewSparse(1024, 128, 8, 1)
	x := randomPoints(1, 1024, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Apply(x)
	}
}

// norm is the Euclidean norm of x.
func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
