package matrix

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// randomLowRankMatrix builds an n×d matrix that is approximately rank r
// plus noise — the regime where FD shines.
func randomLowRankMatrix(n, d, r int, noise float64, seed uint64) [][]float64 {
	rng := randx.New(seed)
	basis := make([][]float64, r)
	for i := range basis {
		basis[i] = make([]float64, d)
		for j := range basis[i] {
			basis[i][j] = rng.Normal()
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for k := 0; k < r; k++ {
			coeff := rng.Normal() * float64(r-k) // decaying spectrum
			for j := 0; j < d; j++ {
				out[i][j] += coeff * basis[k][j]
			}
		}
		for j := 0; j < d; j++ {
			out[i][j] += noise * rng.Normal()
		}
	}
	return out
}

func TestJacobiEigenOnKnownMatrix(t *testing.T) {
	// Symmetric 2x2 with known eigenvalues 3 and 1.
	a := [][]float64{{2, 1}, {1, 2}}
	vals, vecs := jacobiEigen(a)
	if math.Abs(vals[0]-3) > 1e-9 || math.Abs(vals[1]-1) > 1e-9 {
		t.Fatalf("eigenvalues %v, want [3 1]", vals)
	}
	// Check A v = λ v for the top eigenvector.
	v0 := []float64{vecs[0][0], vecs[1][0]}
	av := []float64{2*v0[0] + v0[1], v0[0] + 2*v0[1]}
	for i := range av {
		if math.Abs(av[i]-3*v0[i]) > 1e-9 {
			t.Fatalf("Av != 3v at %d", i)
		}
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	// V Λ Vᵀ must reconstruct the input for a random symmetric matrix.
	rng := randx.New(1)
	const n = 8
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Normal()
			a[i][j], a[j][i] = v, v
		}
	}
	vals, vecs := jacobiEigen(a)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var got float64
			for k := 0; k < n; k++ {
				got += vecs[i][k] * vals[k] * vecs[j][k]
			}
			if math.Abs(got-a[i][j]) > 1e-8 {
				t.Fatalf("reconstruction off at (%d,%d): %v vs %v", i, j, got, a[i][j])
			}
		}
	}
	for i := 1; i < n; i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatal("eigenvalues not descending")
		}
	}
}

func TestFDCovarianceGuarantee(t *testing.T) {
	// The deterministic bound ||AᵀA − BᵀB||₂ ≤ 2||A||_F²/l.
	const n, d = 500, 40
	a := randomLowRankMatrix(n, d, 5, 0.1, 2)
	for _, l := range []int{8, 16, 32} {
		f := NewFD(l, d, 1)
		for _, row := range a {
			f.Append(row)
		}
		diff := f.CovarianceDiff(a)
		if bound := f.CovarianceErrorBound(); diff > bound {
			t.Errorf("l=%d: covariance diff %.2f exceeds bound %.2f", l, diff, bound)
		}
	}
}

func TestFDErrorShrinksWithL(t *testing.T) {
	const n, d = 400, 30
	a := randomLowRankMatrix(n, d, 4, 0.2, 3)
	errAt := func(l int) float64 {
		f := NewFD(l, d, 1)
		for _, row := range a {
			f.Append(row)
		}
		return f.CovarianceDiff(a)
	}
	if e8, e32 := errAt(8), errAt(32); e32 >= e8 {
		t.Errorf("FD error did not shrink with l: %.3f vs %.3f", e8, e32)
	}
}

func TestFDSketchSizeBounded(t *testing.T) {
	const d = 20
	f := NewFD(10, d, 1)
	rng := randx.New(4)
	for i := 0; i < 5000; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Normal()
		}
		f.Append(row)
	}
	if got := len(f.Sketch()); got > 10 {
		t.Errorf("sketch holds %d rows, want <= 10", got)
	}
	if f.n != 5000 {
		t.Errorf("N = %d", f.n)
	}
}

func TestFDExactOnLowRank(t *testing.T) {
	// If A has rank < l, FD recovers the covariance almost exactly.
	const n, d = 200, 16
	a := randomLowRankMatrix(n, d, 3, 0, 5) // exactly rank 3
	f := NewFD(8, d, 1)
	var frob2 float64
	for _, row := range a {
		f.Append(row)
		for _, v := range row {
			frob2 += v * v
		}
	}
	diff := f.CovarianceDiff(a)
	if diff > 1e-6*frob2 {
		t.Errorf("rank-3 matrix: covariance diff %.3g not ~0 (frob2 %.3g)", diff, frob2)
	}
}

func TestFDPanics(t *testing.T) {
	f := NewFD(4, 8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width row must panic")
		}
	}()
	f.Append(make([]float64, 7))
}

func TestAMMUnbiasedAndAccurate(t *testing.T) {
	const n, dA, dB = 2000, 10, 8
	rng := randx.New(6)
	a := make([][]float64, n)
	b := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, dA)
		b[i] = make([]float64, dB)
		for j := range a[i] {
			a[i][j] = rng.Normal()
		}
		for j := range b[i] {
			b[i][j] = a[i][j%dA] + 0.5*rng.Normal() // correlated
		}
	}
	// Exact AᵀB.
	want := make([][]float64, dA)
	for i := range want {
		want[i] = make([]float64, dB)
	}
	for r := 0; r < n; r++ {
		for i := 0; i < dA; i++ {
			for j := 0; j < dB; j++ {
				want[i][j] += a[r][i] * b[r][j]
			}
		}
	}
	m := NewAMM(512, dA, dB, 7)
	for r := 0; r < n; r++ {
		m.Append(a[r], b[r])
	}
	got := m.Product()
	var num, den float64
	for i := 0; i < dA; i++ {
		for j := 0; j < dB; j++ {
			dd := got[i][j] - want[i][j]
			num += dd * dd
			den += want[i][j] * want[i][j]
		}
	}
	if rel := math.Sqrt(num / den); rel > 0.25 {
		t.Errorf("AMM relative Frobenius error %.3f", rel)
	}
	if m.row != n || m.k != 512 {
		t.Error("accessors wrong")
	}
}

func TestAMMErrorShrinksWithK(t *testing.T) {
	const n, d = 1000, 6
	rng := randx.New(8)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, d)
		for j := range a[i] {
			a[i][j] = rng.Normal()
		}
	}
	errAt := func(k int) float64 {
		m := NewAMM(k, d, d, 9)
		for r := 0; r < n; r++ {
			m.Append(a[r], a[r])
		}
		got := m.Product()
		var num float64
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				var want float64
				for r := 0; r < n; r++ {
					want += a[r][i] * a[r][j]
				}
				dd := got[i][j] - want
				num += dd * dd
			}
		}
		return math.Sqrt(num)
	}
	if e64, e1024 := errAt(64), errAt(1024); e1024 >= e64 {
		t.Errorf("AMM error did not shrink with k: %.1f vs %.1f", e64, e1024)
	}
}

func BenchmarkFDAppend(b *testing.B) {
	const d = 64
	f := NewFD(16, d, 1)
	rng := randx.New(1)
	row := make([]float64, d)
	for j := range row {
		row[j] = rng.Normal()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Append(row)
	}
}
