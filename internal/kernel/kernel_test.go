package kernel

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

func TestFFTRoundTrip(t *testing.T) {
	rng := randx.New(1)
	for _, n := range []int{2, 8, 64, 1024} {
		re := make([]float64, n)
		im := make([]float64, n)
		orig := make([]float64, n)
		for i := range re {
			re[i] = rng.Normal()
			orig[i] = re[i]
		}
		fft(re, im, false)
		fft(re, im, true)
		for i := range re {
			if math.Abs(re[i]-orig[i]) > 1e-9 || math.Abs(im[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip diverged at %d", n, i)
			}
		}
	}
}

func TestFFTKnownTransform(t *testing.T) {
	// FFT of an impulse is flat.
	re := []float64{1, 0, 0, 0}
	im := make([]float64, 4)
	fft(re, im, false)
	for i := range re {
		if math.Abs(re[i]-1) > 1e-12 || math.Abs(im[i]) > 1e-12 {
			t.Fatalf("impulse transform wrong at %d: (%v,%v)", i, re[i], im[i])
		}
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fft(make([]float64, 6), make([]float64, 6), false)
}

func TestCircularConvolutionAgainstNaive(t *testing.T) {
	rng := randx.New(2)
	const n = 16
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.Normal()
		b[i] = rng.Normal()
	}
	got := circularConvolve(a, b)
	for i := 0; i < n; i++ {
		var want float64
		for j := 0; j < n; j++ {
			want += a[j] * b[(i-j+n)%n]
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("conv[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestTensorSketchDegree1IsCountSketch(t *testing.T) {
	// Degree 1 must behave as a plain Count-Sketch: inner products
	// approximate <x,y>.
	const d, k = 100, 256
	ts := NewTensorSketch(d, k, 1, 3)
	rng := randx.New(4)
	var meanRel float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, d)
		y := make([]float64, d)
		for i := range x {
			x[i] = rng.Normal()
			y[i] = x[i] + 0.3*rng.Normal() // correlated so <x,y> is far from 0
		}
		got := Dot(ts.Apply(x), ts.Apply(y))
		want := Dot(x, y)
		meanRel += core.RelErr(got, want)
	}
	if meanRel/trials > 0.2 {
		t.Errorf("degree-1 mean relerr %.3f", meanRel/trials)
	}
}

func TestTensorSketchPolynomialKernel(t *testing.T) {
	// E18's core claim: <TS(x),TS(y)> ~ (<x,y>)^p for p = 2 and 3.
	const d = 50
	rng := randx.New(5)
	for _, degree := range []int{2, 3} {
		var meanRel float64
		const trials = 30
		for trial := 0; trial < trials; trial++ {
			ts := NewTensorSketch(d, 4096, degree, uint64(trial)+100)
			x := make([]float64, d)
			y := make([]float64, d)
			for i := range x {
				x[i] = rng.Normal() / math.Sqrt(d)
				y[i] = x[i] + 0.2*rng.Normal()/math.Sqrt(d)
			}
			got := Dot(ts.Apply(x), ts.Apply(y))
			want := PolyKernel(x, y, degree)
			meanRel += core.RelErr(got, want)
		}
		if meanRel/trials > 0.5 {
			t.Errorf("degree %d mean relerr %.3f", degree, meanRel/trials)
		}
	}
}

func TestTensorSketchErrorShrinksWithK(t *testing.T) {
	const d = 50
	meanErr := func(k int) float64 {
		rng := randx.New(7)
		var total float64
		const trials = 25
		for trial := 0; trial < trials; trial++ {
			ts := NewTensorSketch(d, k, 2, uint64(trial)+200)
			x := make([]float64, d)
			y := make([]float64, d)
			for i := range x {
				x[i] = rng.Normal() / math.Sqrt(d)
				y[i] = x[i]
			}
			got := Dot(ts.Apply(x), ts.Apply(y))
			total += core.RelErr(got, PolyKernel(x, y, 2))
		}
		return total / trials
	}
	if e64, e2048 := meanErr(64), meanErr(2048); e2048 >= e64 {
		t.Errorf("kernel error did not shrink with k: %.3f vs %.3f", e64, e2048)
	}
}

func TestTensorSketchNormPreservation(t *testing.T) {
	// ||TS(x)||^2 estimates ||x||^(2p).
	const d = 40
	ts := NewTensorSketch(d, 2048, 2, 9)
	x := make([]float64, d)
	rng := randx.New(10)
	for i := range x {
		x[i] = rng.Normal() / math.Sqrt(d)
	}
	feat := ts.Apply(x)
	want := math.Pow(Dot(x, x), 2)
	if core.RelErr(Dot(feat, feat), want) > 0.3 {
		t.Errorf("norm estimate %.4f, want %.4f", Dot(feat, feat), want)
	}
}

func TestTensorSketchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k not pow2": func() { NewTensorSketch(10, 100, 2, 1) },
		"bad degree": func() { NewTensorSketch(10, 64, 0, 1) },
		"bad input":  func() { NewTensorSketch(10, 64, 2, 1).Apply(make([]float64, 9)) },
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
	ts := NewTensorSketch(10, 64, 2, 1)
	if ts.InputDim() != 10 || ts.OutputDim() != 64 || ts.degree != 2 {
		t.Error("accessors wrong")
	}
}

func BenchmarkTensorSketchApply(b *testing.B) {
	ts := NewTensorSketch(512, 1024, 2, 1)
	x := make([]float64, 512)
	rng := randx.New(1)
	for i := range x {
		x[i] = rng.Normal()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Apply(x)
	}
}
