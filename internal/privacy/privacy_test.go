package privacy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

func TestRandomizedResponseDebias(t *testing.T) {
	const n = 100000
	const trueFrac = 0.3
	rr := NewRandomizedResponse(1.0, 1)
	observed := 0.0
	for i := 0; i < n; i++ {
		bit := i < int(trueFrac*n)
		if rr.Perturb(bit) {
			observed++
		}
	}
	est := rr.Debias(observed, n)
	if math.Abs(est/n-trueFrac) > 0.02 {
		t.Errorf("debiased fraction %.4f, want %.2f", est/n, trueFrac)
	}
}

func TestRandomizedResponseTruthProbability(t *testing.T) {
	rr := NewRandomizedResponse(2.0, 2)
	want := math.Exp(2) / (1 + math.Exp(2))
	if math.Abs(rr.pTruth-want) > 1e-12 {
		t.Errorf("PTruth = %v, want %v", rr.pTruth, want)
	}
	if rr.eps != 2.0 {
		t.Error("epsilon lost")
	}
	// Empirical flip rate should match.
	flips := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if !rr.Perturb(true) {
			flips++
		}
	}
	if math.Abs(float64(flips)/n-(1-want)) > 0.01 {
		t.Errorf("empirical flip rate %.4f, want %.4f", float64(flips)/n, 1-want)
	}
}

func TestLaplaceMechanismMoments(t *testing.T) {
	m := NewLaplaceMechanism(0.5, 1, 3)
	if m.scale != 2 {
		t.Errorf("scale = %v, want 2", m.scale)
	}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += m.Release(10)
	}
	if math.Abs(sum/n-10) > 0.1 {
		t.Errorf("mean released value %.3f, want ~10", sum/n)
	}
}

func TestGaussianMechanismSigma(t *testing.T) {
	m := NewGaussianMechanism(1, 1e-5, 1, 4)
	want := math.Sqrt(2 * math.Log(1.25/1e-5))
	if math.Abs(m.sigma-want) > 1e-9 {
		t.Errorf("sigma = %v, want %v", m.sigma, want)
	}
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := m.Release(0)
		sum += v
		sumSq += v * v
	}
	sd := math.Sqrt(sumSq / n)
	if math.Abs(sd-want)/want > 0.05 {
		t.Errorf("empirical sigma %.3f, want %.3f", sd, want)
	}
	_ = sum
}

func TestMechanismPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"rr":       func() { NewRandomizedResponse(0, 1) },
		"laplace":  func() { NewLaplaceMechanism(1, 0, 1) },
		"gauss":    func() { NewGaussianMechanism(1, 1, 1, 1) },
		"rappor":   func() { NewRAPPOR(4, 2, 1, 1) },
		"cms":      func() { NewPrivateCMS(1, 1, 1, 1) },
		"dpsketch": func() { NewDPCountMin(16, 4, 0, 1) },
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

func TestRAPPOREndToEnd(t *testing.T) {
	// 20k clients over 8 candidate values with a skewed distribution;
	// the decoded frequencies must track the truth.
	const nClients = 20000
	candidates := []string{"chrome", "firefox", "safari", "edge", "opera", "brave", "arc", "other"}
	weights := []float64{0.4, 0.2, 0.15, 0.1, 0.06, 0.04, 0.03, 0.02}
	r := NewRAPPOR(64, 2, 4, 7)
	rng := randx.New(8)
	truth := make(map[string]float64)
	reports := make([][]bool, 0, nClients)
	for c := 0; c < nClients; c++ {
		u := rng.Float64()
		var value string
		acc := 0.0
		for i, w := range weights {
			acc += w
			if u < acc || i == len(weights)-1 {
				value = candidates[i]
				break
			}
		}
		truth[value]++
		reports = append(reports, r.Encode(value, uint64(c)+1000))
	}
	counts := r.Aggregate(reports)
	est := r.EstimateFrequencies(counts, nClients, candidates)
	for _, cand := range candidates[:4] { // head values must be well estimated
		got := est[cand] / nClients
		want := truth[cand] / nClients
		if math.Abs(got-want) > 0.05 {
			t.Errorf("%s: estimated %.3f, true %.3f", cand, got, want)
		}
	}
}

func TestRAPPORPrivacyNoiseScalesWithEps(t *testing.T) {
	loose := NewRAPPOR(64, 2, 8, 1)
	tight := NewRAPPOR(64, 2, 0.5, 1)
	if !(tight.F() > loose.F()) {
		t.Errorf("stronger privacy must flip more: f(0.5)=%.3f f(8)=%.3f", tight.F(), loose.F())
	}
	if loose.m != 64 {
		t.Error("M accessor wrong")
	}
}

func TestPrivateCMSEndToEnd(t *testing.T) {
	// E15's Apple-style pipeline: clients report privately; the server
	// estimates head-item frequencies.
	const nClients = 30000
	s := NewPrivateCMS(256, 16, 4, 9)
	rng := randx.New(10)
	truth := map[string]int{}
	items := []string{"😀", "😂", "❤️", "👍", "🔥"}
	weights := []float64{0.35, 0.25, 0.2, 0.15, 0.05}
	for c := 0; c < nClients; c++ {
		u := rng.Float64()
		var v string
		acc := 0.0
		for i, w := range weights {
			acc += w
			if u < acc || i == len(weights)-1 {
				v = items[i]
				break
			}
		}
		truth[v]++
		s.Absorb(s.EncodeClient(v, uint64(c)+5000))
	}
	for _, item := range items[:3] {
		got := s.Estimate(item)
		want := float64(truth[item])
		if math.Abs(got-want) > 0.15*float64(nClients) {
			t.Errorf("%s: estimate %.0f, true %.0f", item, got, want)
		}
	}
	if s.n != nClients {
		t.Errorf("N = %d", s.n)
	}
}

func TestPrivateCMSMorePrivacyMoreNoise(t *testing.T) {
	// At fixed population, estimates under eps=0.5 should be noisier
	// than under eps=8 (E15's tradeoff curve).
	run := func(eps float64) float64 {
		const nClients = 8000
		s := NewPrivateCMS(128, 8, eps, 11)
		for c := 0; c < nClients; c++ {
			s.Absorb(s.EncodeClient("target", uint64(c)+90000))
		}
		return math.Abs(s.Estimate("target") - nClients)
	}
	var errTight, errLoose float64
	for trial := 0; trial < 3; trial++ {
		errTight += run(0.5)
		errLoose += run(8)
	}
	if errLoose >= errTight {
		t.Errorf("eps=8 error %.0f not smaller than eps=0.5 error %.0f", errLoose, errTight)
	}
}

func TestDPCountMinLifecycle(t *testing.T) {
	d := NewDPCountMin(512, 5, 1, 12)
	for i := 0; i < 20000; i++ {
		d.AddString(fmt.Sprint(i % 100)) // 100 items, 200 each
	}
	if _, err := d.EstimateString("5"); err == nil {
		t.Fatal("query before release must fail")
	}
	d.Release(13)
	got, err := d.EstimateString("5")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-200) > 200 {
		t.Errorf("DP estimate %.0f, want ~200 within noise", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("update after release must panic")
			}
		}()
		d.AddString("x")
	}()
	if d.n != 20000 || d.eps != 1 {
		t.Error("metadata wrong")
	}
	if got := float64(d.sketch.Depth()) / d.eps; got != 5 {
		t.Errorf("noise scale %v, want depth/eps = 5", got)
	}
}

func TestDPCountMinNoiseAmortizes(t *testing.T) {
	// The paper's thesis: relative error of the DP sketch shrinks as
	// the per-item counts grow, because the Laplace noise is constant.
	run := func(perItem int) float64 {
		d := NewDPCountMin(1024, 5, 1, 14)
		for i := 0; i < 50; i++ {
			for j := 0; j < perItem; j++ {
				d.AddString(fmt.Sprint(i))
			}
		}
		d.Release(15)
		var rel float64
		for i := 0; i < 50; i++ {
			got, _ := d.EstimateString(fmt.Sprint(i))
			rel += core.RelErr(got, float64(perItem))
		}
		return rel / 50
	}
	small, large := run(20), run(2000)
	if large >= small {
		t.Errorf("relative DP error did not shrink with scale: %.4f vs %.4f", large, small)
	}
}

func BenchmarkRAPPOREncode(b *testing.B) {
	r := NewRAPPOR(128, 2, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Encode("value", uint64(i))
	}
}

func BenchmarkPrivateCMSAbsorb(b *testing.B) {
	s := NewPrivateCMS(256, 16, 2, 1)
	rep := s.EncodeClient("v", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Absorb(rep)
	}
}
