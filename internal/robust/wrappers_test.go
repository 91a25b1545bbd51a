package robust

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/cardinality"
)

// Each defended wrapper must preserve honest-stream utility: on a
// non-adaptive stream of n distinct items the revealed estimate stays
// within the wrapper's advertised tolerance of the truth, at every
// interleaved read. (The attack-side guarantees live in
// internal/robust/attack; these are the other half of the contract.)

func feedDistinct(e Estimator, lo, hi uint64) {
	var buf []byte
	for v := lo; v < hi; v++ {
		buf = strconv.AppendUint(buf[:0], v, 10)
		e.Add(buf)
	}
}

// checkTracks reads the estimator every `stride` items up to n and
// fails if any revealed estimate leaves [truth/(1+tol), truth*(1+tol)].
func checkTracks(t *testing.T, e Estimator, n, stride uint64, tol float64) {
	t.Helper()
	for fed := uint64(0); fed < n; fed += stride {
		feedDistinct(e, fed, fed+stride)
		truth := float64(fed + stride)
		got := e.Estimate()
		if got < truth/(1+tol) || got > truth*(1+tol) {
			t.Fatalf("at n=%.0f: estimate %.0f outside ±%.0f%%", truth, got, tol*100)
		}
	}
}

func TestSwitchingHLLHonestStream(t *testing.T) {
	// Interleaved reads advance copies as the stream grows; λ=128
	// covers log_{1.05}(growth) epochs with room to spare.
	s := NewSwitchingHLL(0.05, 128, 12, 1)
	checkTracks(t, s, 40000, 2000, 0.15)
	if s.burned {
		t.Errorf("honest stream exhausted λ=%d copies (used %d)", len(s.copies), s.cur+1)
	}
}

func TestSwitchingKMVHonestStream(t *testing.T) {
	s := NewSwitchingKMV(0.05, 128, 512, 1)
	checkTracks(t, s, 40000, 2000, 0.15)
	if s.burned {
		t.Errorf("honest stream exhausted λ=%d copies (used %d)", len(s.copies), s.cur+1)
	}
}

func TestNoisyHonestStream(t *testing.T) {
	// Tolerance: HLL p=12 error (~2%) compounded with the (1+rho)
	// rounding grid (half a step each way).
	n := NewNoisy(cardinality.NewHLL(12, 1), 0.1, 1)
	checkTracks(t, n, 40000, 2000, 0.2)
}

func TestNoisyDeterministicRelease(t *testing.T) {
	// Repeated queries with no interleaved writes must be bit-identical
	// — averaging repeats must not wash the noise out.
	n := NewNoisy(cardinality.NewHLL(12, 1), 0.1, 1)
	feedDistinct(n, 0, 10000)
	first := n.Estimate()
	for i := 0; i < 100; i++ {
		if got := n.Estimate(); got != first {
			t.Fatalf("repeat query %d: %v != %v", i, got, first)
		}
	}
}

func TestSubsampledHonestStream(t *testing.T) {
	// q=1/4: inner sees a Bernoulli quarter of the stream; the 1/q
	// scale-up adds binomial variance on top of HLL error.
	s := NewSubsampled(cardinality.NewHLL(12, 1), 0.25, 1)
	feedDistinct(s, 0, 40000)
	got := s.Estimate()
	if got < 40000*0.85 || got > 40000*1.15 {
		t.Fatalf("subsampled estimate %.0f for 40000 distinct", got)
	}
}

func TestWrapperSizeAccounting(t *testing.T) {
	hll := cardinality.NewHLL(12, 1)
	base := hll.SizeBytes()
	if got := NewSwitchingHLL(0.05, 8, 12, 1).SizeBytes(); got < 8*base {
		t.Errorf("switching λ=8 SizeBytes %d < 8×%d", got, base)
	}
	if got := NewNoisy(cardinality.NewHLL(12, 1), 0.1, 1).SizeBytes(); got < base {
		t.Errorf("noisy SizeBytes %d < inner %d", got, base)
	}
	if got := NewSubsampled(cardinality.NewHLL(12, 1), 0.5, 1).SizeBytes(); got < base {
		t.Errorf("subsampled SizeBytes %d < inner %d", got, base)
	}
}

func TestWrapperPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("switching eps=0", func() { NewSwitchingHLL(0, 4, 12, 1) })
	mustPanic("switching lambda=0", func() { NewSwitchingHLL(0.05, 0, 12, 1) })
	mustPanic("noisy rho=0", func() { NewNoisy(cardinality.NewHLL(12, 1), 0, 1) })
	mustPanic("noisy rho=1", func() { NewNoisy(cardinality.NewHLL(12, 1), 1, 1) })
	mustPanic("subsampled q=0", func() { NewSubsampled(cardinality.NewHLL(12, 1), 0, 1) })
	mustPanic("subsampled q>1", func() { NewSubsampled(cardinality.NewHLL(12, 1), 1.5, 1) })
}

func TestNoisyRoundGrid(t *testing.T) {
	// The release grid is multiplicative: consecutive representable
	// outputs differ by exactly (1+rho), and small values pass through.
	const rho = 0.1
	phase := noisePhase(99)
	if got := noisyRound(0.5, rho, phase); got != 0.5 {
		t.Errorf("values <=1 must release exactly, got %v", got)
	}
	prev := 0.0
	distinct := 0
	for v := 2.0; v < 1e6; v *= 1.01 {
		r := noisyRound(v, rho, phase)
		if math.Abs(r/v-1) > rho {
			t.Fatalf("noisyRound(%v) = %v: off grid by more than rho", v, r)
		}
		if r != prev {
			if prev != 0 {
				step := r / prev
				if math.Abs(step-(1+rho)) > 1e-9 {
					t.Fatalf("grid step %v, want %v", step, 1+rho)
				}
			}
			prev = r
			distinct++
		}
	}
	if distinct < 50 {
		t.Errorf("only %d distinct grid points over 6 decades", distinct)
	}
}
