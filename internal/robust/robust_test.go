package robust

import (
	"math"
	"testing"

	"repro/internal/ams"
	"repro/internal/randx"
)

// adaptiveAttack runs the black-box underestimation attack against an
// F2 oracle: repeatedly probe fresh items; when inserting an item makes
// the reported estimate drop (its sign pattern opposes the sketch's
// current linear state), hammer that item. Returns the final reported
// estimate and the true F2.
func adaptiveAttack(update func(uint64, int64), estimate func() float64, steps int, seed uint64) (reported, trueF2 float64) {
	rng := randx.New(seed)
	freq := map[uint64]int64{}
	nextItem := uint64(1)
	for step := 0; step < steps; step++ {
		before := estimate()
		probe := nextItem
		nextItem++
		update(probe, 1)
		freq[probe]++
		after := estimate()
		if after <= before {
			// Favourable item: hammer it.
			burst := int64(5 + rng.Intn(10))
			update(probe, burst)
			freq[probe] += burst
		}
	}
	for _, f := range freq {
		trueF2 += float64(f) * float64(f)
	}
	return estimate(), trueF2
}

func TestAdaptiveAttackBreaksNaiveAMS(t *testing.T) {
	// A plain AMS sketch under the adaptive attack should underestimate
	// F2 badly — this is the failure mode the PODS 2020 framework
	// addresses. (If this test ever fails, the attack has regressed,
	// not the sketch.)
	s := ams.New(1, 64, 42)
	reported, trueF2 := adaptiveAttack(
		func(item uint64, w int64) { s.AddUint64(item, w) },
		s.F2,
		1500, 7)
	if reported > 0.5*trueF2 {
		t.Errorf("attack failed to break naive sketch: reported %.0f vs true %.0f", reported, trueF2)
	}
}

func TestRobustSurvivesAdaptiveAttack(t *testing.T) {
	const eps = 0.5
	lambda := LambdaFor(eps, 1e9)
	r := NewF2(eps, lambda, 1, 64, 42)
	reported, trueF2 := adaptiveAttack(r.AddUint64, r.Estimate, 1500, 7)
	if r.burned {
		t.Fatal("wrapper ran out of copies — lambda sized too small")
	}
	// The robust estimate must stay within a constant factor of truth
	// (AMS error + (1+eps) switching slack).
	if reported < trueF2/4 || reported > trueF2*4 {
		t.Errorf("robust estimate %.0f outside [%0.f, %.0f]", reported, trueF2/4, trueF2*4)
	}
}

func TestRobustTracksHonestStream(t *testing.T) {
	// On an oblivious stream the wrapper should track F2 within the
	// (1+eps) switching quantization.
	const eps = 0.2
	r := NewF2(eps, 40, 3, 64, 1)
	var trueF2 float64
	freq := map[uint64]int64{}
	rng := randx.New(2)
	for i := 0; i < 10000; i++ {
		item := uint64(rng.Intn(500))
		r.AddUint64(item, 1)
		freq[item]++
		if i%500 == 499 {
			trueF2 = 0
			for _, f := range freq {
				trueF2 += float64(f) * float64(f)
			}
			got := r.Estimate()
			if got < trueF2/2 || got > trueF2*2 {
				t.Fatalf("step %d: robust estimate %.0f vs true %.0f", i, got, trueF2)
			}
		}
	}
	if r.burned {
		t.Error("honest stream exhausted the copies")
	}
}

func TestOutputChangesAreQuantized(t *testing.T) {
	// The revealed output must change at most λ times.
	const eps = 0.3
	lambda := 20
	r := NewF2(eps, lambda, 3, 64, 3)
	changes := 0
	last := math.NaN()
	rng := randx.New(4)
	for i := 0; i < 50000; i++ {
		r.AddUint64(uint64(rng.Intn(1000)), 1)
		got := r.Estimate()
		if !math.IsNaN(last) && got != last {
			changes++
		}
		last = got
	}
	if changes > lambda {
		t.Errorf("output changed %d times with lambda=%d", changes, lambda)
	}
}

func TestLambdaFor(t *testing.T) {
	if LambdaFor(0.5, 1e6) < 10 {
		t.Error("lambda suspiciously small")
	}
	if LambdaFor(0.1, 1e6) <= LambdaFor(0.5, 1e6) {
		t.Error("smaller eps must need more copies")
	}
	if LambdaFor(0.5, 0) < 1 {
		t.Error("degenerate maxF2 must still give lambda >= 1")
	}
}

func TestSizeAccounting(t *testing.T) {
	r := NewF2(0.5, 4, 2, 32, 1)
	if len(r.copies) != 4 {
		t.Errorf("copies = %d", len(r.copies))
	}
	single := ams.New(2, 32, 1).SizeBytes()
	if r.SizeBytes() != 4*single {
		t.Errorf("SizeBytes = %d, want %d", r.SizeBytes(), 4*single)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"eps":    func() { NewF2(0, 4, 1, 8, 1) },
		"lambda": func() { NewF2(0.5, 0, 1, 8, 1) },
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

func TestUpdateBytes(t *testing.T) {
	r := NewF2(0.5, 2, 1, 16, 9)
	for i := 0; i < 100; i++ {
		r.Update([]byte{byte(i)})
	}
	if est := r.Estimate(); est <= 0 {
		t.Errorf("estimate %.1f after 100 updates", est)
	}
}

func BenchmarkRobustUpdate(b *testing.B) {
	r := NewF2(0.5, 16, 1, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AddUint64(uint64(i), 1)
	}
}
