package randx

import (
	"math"
	"sort"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := New(43)
	diff := false
	for i := 0; i < 10; i++ {
		if New(42).Uint64() != c.Uint64() {
			diff = true
		}
		c.Uint64()
	}
	if !diff {
		t.Fatal("different seeds produced identical prefixes")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(1)
	for n := 1; n <= 100; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(7)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: %d vs expected %.0f", b, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(2)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Normal variance %.4f, want ~1", variance)
	}
}

func TestNormalPairIndependentMoments(t *testing.T) {
	r := New(17)
	const n = 100000
	var sumXY float64
	for i := 0; i < n; i++ {
		x, y := r.NormalPair()
		sumXY += x * y
	}
	if corr := sumXY / n; math.Abs(corr) > 0.02 {
		t.Errorf("NormalPair correlation %.4f, want ~0", corr)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(2) mean %.4f, want 0.5", mean)
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := New(5)
	const n, scale = 200000, 1.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Laplace(scale)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("Laplace mean %.4f, want ~0", mean)
	}
	if want := 2 * scale * scale; math.Abs(variance-want)/want > 0.05 {
		t.Errorf("Laplace variance %.4f, want ~%.2f", variance, want)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(6)
	const n, p = 200000, 0.25
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p
	if mean := sum / n; math.Abs(mean-want)/want > 0.05 {
		t.Errorf("Geometric(%v) mean %.4f, want ~%.3f", p, mean, want)
	}
	if New(1).Geometric(1) != 0 {
		t.Error("Geometric(1) must be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		sorted := append([]int(nil), p...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("Perm(%d) missing %d", n, i)
			}
		}
	}
}

func TestZipfSupport(t *testing.T) {
	r := New(9)
	z := NewZipf(r, 1.1, 1000)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 1 || v > 1000 {
			t.Fatalf("Zipf out of support: %d", v)
		}
	}
}

// zipfPMF is the exact probability mass function of Zipf(alpha) over
// {1, …, n}, normalized to sum to 1.
func zipfPMF(alpha float64, n int) []float64 {
	pmf := make([]float64, n)
	var z float64
	for k := 1; k <= n; k++ {
		pmf[k-1] = math.Pow(float64(k), -alpha)
		z += pmf[k-1]
	}
	for i := range pmf {
		pmf[i] /= z
	}
	return pmf
}

func TestZipfSkewMatchesPMF(t *testing.T) {
	// Empirical frequency of the top item should match the analytic
	// PMF within statistical noise, for several alphas including the
	// near-harmonic case.
	for _, alpha := range []float64{0.8, 0.99, 1.0, 1.2, 2.0} {
		r := New(10)
		const n, draws = 100, 200000
		z := NewZipf(r, alpha, n)
		counts := make([]int, n+1)
		for i := 0; i < draws; i++ {
			counts[z.Next()]++
		}
		pmf := zipfPMF(alpha, n)
		for _, k := range []int{1, 2, 10} {
			got := float64(counts[k]) / draws
			want := pmf[k-1]
			sigma := math.Sqrt(want * (1 - want) / draws)
			if math.Abs(got-want) > 8*sigma+1e-4 {
				t.Errorf("alpha=%.2f item %d: freq %.5f vs pmf %.5f", alpha, k, got, want)
			}
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(New(1), 0, 10) },
		func() { NewZipf(New(1), 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestShuffle(t *testing.T) {
	r := New(11)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatal("Shuffle lost elements")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkZipf(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1.1, 1<<20)
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Normal()
	}
}
