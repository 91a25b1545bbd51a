package frequency

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

// zipfStream draws n items from Zipf(alpha) over a domain and returns
// the stream plus exact counts.
func zipfStream(n, domain int, alpha float64, seed uint64) ([]uint64, map[uint64]uint64) {
	rng := randx.New(seed)
	z := randx.NewZipf(rng, alpha, domain)
	stream := make([]uint64, n)
	truth := make(map[uint64]uint64, domain)
	for i := range stream {
		v := z.Next()
		stream[i] = v
		truth[v]++
	}
	return stream, truth
}

func TestCountMinNeverUndercounts(t *testing.T) {
	cm := NewCountMin(256, 4, 1)
	stream, truth := zipfStream(50000, 10000, 1.2, 1)
	for _, v := range stream {
		cm.AddUint64(v, 1)
	}
	for item, want := range truth {
		if got := cm.EstimateUint64(item); got < want {
			t.Fatalf("undercount: item %d est %d < true %d", item, got, want)
		}
	}
}

func TestCountMinErrorBound(t *testing.T) {
	const n = 100000
	cm := NewCountMin(2000, 5, 2) // eps = e/2000
	stream, truth := zipfStream(n, 50000, 1.1, 2)
	for _, v := range stream {
		cm.AddUint64(v, 1)
	}
	bound := uint64(cm.ErrorBound())
	violations := 0
	for item, want := range truth {
		if cm.EstimateUint64(item) > want+bound {
			violations++
		}
	}
	// delta = e^-5 < 1%; allow a small number of violations.
	if violations > len(truth)/50 {
		t.Errorf("%d/%d estimates exceeded the (eps,delta) bound", violations, len(truth))
	}
}

func TestCountMinWeightedUpdates(t *testing.T) {
	cm := NewCountMin(512, 4, 3)
	cm.AddString("a")
	cm.AddUint64(7, 41)
	if got := cm.EstimateUint64(7); got < 41 {
		t.Errorf("weighted estimate %d < 41", got)
	}
	if cm.N() != 42 {
		t.Errorf("N = %d, want 42", cm.N())
	}
}

func TestCountMinConservativeReducesError(t *testing.T) {
	const n = 200000
	stream, truth := zipfStream(n, 100000, 1.0, 4)
	plain := NewCountMin(512, 4, 5)
	cons := NewCountMin(512, 4, 5)
	cons.SetConservative(true)
	for _, v := range stream {
		plain.AddUint64(v, 1)
		cons.AddUint64(v, 1)
	}
	var errPlain, errCons float64
	for item, want := range truth {
		errPlain += float64(plain.EstimateUint64(item) - want)
		got := cons.EstimateUint64(item)
		if got < want {
			t.Fatalf("conservative update undercounted item %d: %d < %d", item, got, want)
		}
		errCons += float64(got - want)
	}
	if errCons >= errPlain {
		t.Errorf("conservative update did not reduce total error: %.0f vs %.0f", errCons, errPlain)
	}
}

func TestCountMinConservativeRules(t *testing.T) {
	c := NewCountMin(64, 3, 1)
	c.AddString("x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetConservative after updates must panic")
			}
		}()
		c.SetConservative(true)
	}()
	a := NewCountMin(64, 3, 1)
	a.SetConservative(true)
	b := NewCountMin(64, 3, 1)
	if err := a.Merge(b); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merging conservative sketch must fail")
	}
}

func TestCountMinMergeEqualsSingleStream(t *testing.T) {
	stream, _ := zipfStream(60000, 5000, 1.3, 6)
	a := NewCountMin(256, 4, 7)
	b := NewCountMin(256, 4, 7)
	whole := NewCountMin(256, 4, 7)
	for i, v := range stream {
		if i%2 == 0 {
			a.AddUint64(v, 1)
		} else {
			b.AddUint64(v, 1)
		}
		whole.AddUint64(v, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for item := uint64(1); item <= 100; item++ {
		if a.EstimateUint64(item) != whole.EstimateUint64(item) {
			t.Fatalf("merge not lossless for item %d", item)
		}
	}
	if err := a.Merge(NewCountMin(128, 4, 7)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across widths must fail")
	}
}

func TestCountMinInnerProduct(t *testing.T) {
	// Join-size estimation: inner product of two frequency vectors.
	a := NewCountMin(4096, 5, 8)
	b := NewCountMin(4096, 5, 8)
	var want uint64
	// f has items 0..99 with count i+1; g has the same items with count 2.
	for i := uint64(0); i < 100; i++ {
		a.AddUint64(i, i+1)
		b.AddUint64(i, 2)
		want += (i + 1) * 2
	}
	got, err := a.InnerProduct(b)
	if err != nil {
		t.Fatal(err)
	}
	if got < want || float64(got-want) > 0.2*float64(want) {
		t.Errorf("inner product %d, want >= %d within 20%%", got, want)
	}
	if _, err := a.InnerProduct(NewCountMin(64, 5, 8)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("inner product across shapes must fail")
	}
}

func TestCountMinSerialization(t *testing.T) {
	cm := NewCountMin(128, 4, 9)
	stream, _ := zipfStream(10000, 1000, 1.5, 9)
	for _, v := range stream {
		cm.AddUint64(v, 1)
	}
	data, _ := cm.MarshalBinary()
	var g CountMin
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for item := uint64(1); item <= 50; item++ {
		if g.EstimateUint64(item) != cm.EstimateUint64(item) {
			t.Fatal("round trip changed estimates")
		}
	}
	if g.N() != cm.N() {
		t.Error("round trip changed N")
	}
}

func TestCountSketchUnbiasedAndL2Bound(t *testing.T) {
	const n = 100000
	stream, truth := zipfStream(n, 50000, 1.5, 10)
	cs := NewCountSketch(1024, 5, 11)
	for _, v := range stream {
		cs.AddUint64(v, 1)
	}
	// Error should be within a few multiples of ||f||_2 / sqrt(w).
	var f2 float64
	for _, c := range truth {
		f2 += float64(c) * float64(c)
	}
	scale := math.Sqrt(f2 / 1024)
	bad := 0
	probes := 0
	for item, want := range truth {
		probes++
		if probes > 5000 {
			break
		}
		got := cs.EstimateUint64(item)
		if math.Abs(float64(got)-float64(want)) > 6*scale {
			bad++
		}
	}
	if bad > probes/20 {
		t.Errorf("%d/%d estimates outside 6x L2 bound", bad, probes)
	}
}

func TestCountSketchCountMinCrossover(t *testing.T) {
	// E4's crossover at equal space (width w): Count-Min's additive
	// error scales with ‖f‖₁/w, Count Sketch's with ‖f‖₂/√w. When the
	// stream is lightly skewed ‖f‖₂ ≪ ‖f‖₁ and Count Sketch wins; when
	// a few items dominate, ‖f‖₂ ≈ ‖f‖₁ and Count-Min's faster 1/w
	// decay wins. Verify both regimes.
	const n = 200000
	meanAbsErr := func(alpha float64, seed uint64) (cmErr, csErr float64) {
		stream, truth := zipfStream(n, 100000, alpha, seed)
		cm := NewCountMin(512, 5, 13)
		cs := NewCountSketch(512, 5, 13)
		for _, v := range stream {
			cm.AddUint64(v, 1)
			cs.AddUint64(v, 1)
		}
		count := 0
		for item, want := range truth {
			cmErr += math.Abs(float64(cm.EstimateUint64(item)) - float64(want))
			csErr += math.Abs(float64(cs.EstimateUint64(item)) - float64(want))
			count++
		}
		return cmErr / float64(count), csErr / float64(count)
	}
	cmLight, csLight := meanAbsErr(0.6, 12)
	if csLight >= cmLight {
		t.Errorf("light skew: count sketch err %.1f not better than count-min %.1f", csLight, cmLight)
	}
	cmHeavy, csHeavy := meanAbsErr(1.8, 12)
	if cmHeavy >= csHeavy {
		t.Errorf("heavy skew: count-min err %.1f not better than count sketch %.1f", cmHeavy, csHeavy)
	}
}

func TestCountSketchTurnstile(t *testing.T) {
	cs := NewCountSketch(256, 5, 14)
	cs.AddUint64(42, 100)
	cs.AddUint64(42, -60)
	got := cs.EstimateUint64(42)
	if got < 30 || got > 50 {
		t.Errorf("turnstile estimate %d, want ~40", got)
	}
}

func TestCountSketchF2(t *testing.T) {
	cs := NewCountSketch(2048, 7, 15)
	var want float64
	for i := uint64(0); i < 1000; i++ {
		w := int64(i%10) + 1
		cs.AddUint64(i, w)
		want += float64(w) * float64(w)
	}
	got := cs.F2Estimate()
	if core.RelErr(got, want) > 0.15 {
		t.Errorf("F2 estimate %.0f, want ~%.0f", got, want)
	}
}

func TestCountSketchMergeAndSerialize(t *testing.T) {
	a := NewCountSketch(128, 3, 16)
	b := NewCountSketch(128, 3, 16)
	whole := NewCountSketch(128, 3, 16)
	for i := uint64(0); i < 1000; i++ {
		if i%2 == 0 {
			a.AddUint64(i, 1)
		} else {
			b.AddUint64(i, 1)
		}
		whole.AddUint64(i, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if a.EstimateUint64(i) != whole.EstimateUint64(i) {
			t.Fatal("merge not lossless")
		}
	}
	data, _ := a.MarshalBinary()
	var g CountSketch
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if g.EstimateUint64(i) != a.EstimateUint64(i) {
			t.Fatal("round trip changed estimates")
		}
	}
	if err := a.Merge(NewCountSketch(128, 3, 17)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across seeds must fail")
	}
}

func TestCountSketchDepthRoundedOdd(t *testing.T) {
	cs := NewCountSketch(64, 4, 1)
	if cs.Depth()%2 == 0 {
		t.Error("depth should be odd")
	}
}

func TestMisraGriesGuarantee(t *testing.T) {
	const n = 100000
	stream, truth := zipfStream(n, 10000, 1.2, 20)
	mg := NewMisraGries(100)
	for _, v := range stream {
		mg.Add(fmt.Sprint(v), 1)
	}
	bound := mg.ErrorBound()
	for item, want := range truth {
		got := mg.Estimate(fmt.Sprint(item))
		if got > want {
			t.Fatalf("misra-gries overcounted %v: %d > %d", item, got, want)
		}
		if want > bound && got == 0 {
			t.Fatalf("item with count %d > bound %d was lost", want, bound)
		}
		if want-got > bound {
			t.Fatalf("undercount %d exceeds bound %d", want-got, bound)
		}
	}
}

func TestMisraGriesHeavyHittersNoFalseNegatives(t *testing.T) {
	const n = 50000
	stream, truth := zipfStream(n, 5000, 1.5, 21)
	mg := NewMisraGries(200)
	for _, v := range stream {
		mg.Add(fmt.Sprint(v), 1)
	}
	const phi = 0.01
	hh := mg.HeavyHitters(phi)
	got := make(map[string]bool, len(hh))
	for _, e := range hh {
		got[e.Item] = true
	}
	for item, c := range truth {
		if float64(c) >= phi*float64(n) && !got[fmt.Sprint(item)] {
			t.Errorf("true heavy hitter %d (count %d) missing", item, c)
		}
	}
}

func TestMisraGriesMergePreservesGuarantee(t *testing.T) {
	streamA, truthA := zipfStream(30000, 3000, 1.3, 22)
	streamB, truthB := zipfStream(30000, 3000, 1.3, 23)
	a := NewMisraGries(150)
	b := NewMisraGries(150)
	for _, v := range streamA {
		a.Add(fmt.Sprint(v), 1)
	}
	for _, v := range streamB {
		b.Add(fmt.Sprint(v), 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 60000 {
		t.Errorf("merged N = %d", a.N())
	}
	bound := a.N() / uint64(a.K()+1)
	for item, cA := range truthA {
		want := cA + truthB[item]
		got := a.Estimate(fmt.Sprint(item))
		if got > want {
			t.Fatalf("merged overcount for %d", item)
		}
		if want-got > bound {
			t.Fatalf("merged undercount %d exceeds bound %d", want-got, bound)
		}
	}
	if err := a.Merge(NewMisraGries(10)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across k must fail")
	}
}

func TestMisraGriesSerialization(t *testing.T) {
	mg := NewMisraGries(50)
	stream, _ := zipfStream(10000, 500, 1.4, 24)
	for _, v := range stream {
		mg.Add(fmt.Sprint(v), 1)
	}
	data, _ := mg.MarshalBinary()
	var g MisraGries
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, e := range mg.Entries() {
		if g.Estimate(e.Item) != e.Count {
			t.Fatal("round trip changed counters")
		}
	}
}

func TestSpaceSavingGuarantee(t *testing.T) {
	const n = 100000
	stream, truth := zipfStream(n, 10000, 1.2, 25)
	ss := NewSpaceSaving(100)
	for _, v := range stream {
		ss.Add(fmt.Sprint(v), 1)
	}
	bound := ss.ErrorBound()
	for item, want := range truth {
		got := ss.Estimate(fmt.Sprint(item))
		if got > 0 && got < want {
			t.Fatalf("space-saving undercounted tracked item %v: %d < %d", item, got, want)
		}
		if got > want+bound {
			t.Fatalf("overcount %d exceeds bound %d", got-want, bound)
		}
		if want > bound && got == 0 {
			t.Fatalf("item with count %d > N/k was lost", want)
		}
	}
}

func TestSpaceSavingMatchesMisraGriesRecall(t *testing.T) {
	// E5: the two deterministic summaries should find the same heavy
	// hitters at matched counter budgets.
	const n = 80000
	stream, truth := zipfStream(n, 8000, 1.4, 26)
	ss := NewSpaceSaving(128)
	mg := NewMisraGries(128)
	for _, v := range stream {
		s := fmt.Sprint(v)
		ss.Add(s, 1)
		mg.Add(s, 1)
	}
	const phi = 0.005
	wantHH := map[string]bool{}
	for item, c := range truth {
		if float64(c) >= phi*float64(n) {
			wantHH[fmt.Sprint(item)] = true
		}
	}
	ssGot := map[string]bool{}
	for _, e := range ss.HeavyHitters(phi) {
		ssGot[e.Item] = true
	}
	mgGot := map[string]bool{}
	for _, e := range mg.HeavyHitters(phi) {
		mgGot[e.Item] = true
	}
	for item := range wantHH {
		if !ssGot[item] {
			t.Errorf("space-saving missed heavy hitter %s", item)
		}
		if !mgGot[item] {
			t.Errorf("misra-gries missed heavy hitter %s", item)
		}
	}
}

func TestSpaceSavingGuaranteedCount(t *testing.T) {
	ss := NewSpaceSaving(4)
	for i := 0; i < 100; i++ {
		ss.Add("hot", 1)
	}
	for i := 0; i < 40; i++ {
		ss.Add(fmt.Sprint(i%8), 1) // churn through evictions
	}
	if g := ss.GuaranteedCount("hot"); g > 100 {
		t.Errorf("guaranteed count %d exceeds truth", g)
	}
	if ss.Estimate("hot") < 100 {
		t.Error("tracked hot item undercounted")
	}
}

func TestSpaceSavingMerge(t *testing.T) {
	a := NewSpaceSaving(64)
	b := NewSpaceSaving(64)
	streamA, truthA := zipfStream(20000, 2000, 1.5, 27)
	streamB, truthB := zipfStream(20000, 2000, 1.5, 28)
	for _, v := range streamA {
		a.Add(fmt.Sprint(v), 1)
	}
	for _, v := range streamB {
		b.Add(fmt.Sprint(v), 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 40000 {
		t.Errorf("merged N = %d", a.N())
	}
	// The largest combined item must be present with a valid upper bound.
	var maxItem string
	var maxCount uint64
	for item, c := range truthA {
		total := c + truthB[item]
		if total > maxCount {
			maxCount, maxItem = total, fmt.Sprint(item)
		}
	}
	got := a.Estimate(maxItem)
	if got == 0 {
		t.Fatal("merged summary lost the top item")
	}
	if got < maxCount {
		t.Errorf("merged estimate %d below true %d (upper-bound property lost)", got, maxCount)
	}
	if err := a.Merge(NewSpaceSaving(32)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across k must fail")
	}
}

func TestSpaceSavingSerialization(t *testing.T) {
	ss := NewSpaceSaving(32)
	stream, _ := zipfStream(5000, 300, 1.3, 29)
	for _, v := range stream {
		ss.Add(fmt.Sprint(v), 1)
	}
	data, _ := ss.MarshalBinary()
	var g SpaceSaving
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, e := range ss.Entries() {
		if g.Estimate(e.Item) != e.Count {
			t.Fatal("round trip changed counters")
		}
	}
	if g.N() != ss.N() {
		t.Error("round trip changed N")
	}
}

func TestMajorityFindsMajority(t *testing.T) {
	m := NewMajority()
	// 60% a, 40% split.
	for i := 0; i < 100; i++ {
		if i%5 < 3 {
			m.Add("a")
		} else {
			m.Add(fmt.Sprint(i))
		}
	}
	if c, ok := m.Candidate(); !ok || c != "a" {
		t.Errorf("candidate = %q, want a", c)
	}
	if m.n != 100 {
		t.Errorf("n = %d", m.n)
	}
	empty := NewMajority()
	if _, ok := empty.Candidate(); ok {
		t.Error("empty stream should report no candidate")
	}
}

func TestDyadicRangeCount(t *testing.T) {
	d := NewDyadicCountMin(16, 2048, 4, 30)
	// Uniform values over [0, 1000).
	rng := randx.New(31)
	truth := make([]uint64, 1000)
	const n = 50000
	for i := 0; i < n; i++ {
		v := uint64(rng.Intn(1000))
		d.Add(v, 1)
		truth[v]++
	}
	var want uint64
	for v := 100; v <= 300; v++ {
		want += truth[v]
	}
	got := d.RangeCount(100, 300)
	if got < want {
		t.Errorf("range count %d below true %d (count-min never undercounts)", got, want)
	}
	if float64(got-want) > 0.1*float64(n) {
		t.Errorf("range overcount %d too large", got-want)
	}
}

func TestDyadicQuantile(t *testing.T) {
	d := NewDyadicCountMin(20, 4096, 5, 32)
	const n = 100000
	rng := randx.New(33)
	for i := 0; i < n; i++ {
		d.Add(uint64(rng.Intn(1<<20)), 1)
	}
	med := d.Quantile(0.5)
	// True median of uniform over 2^20 is ~2^19.
	if core.RelErr(float64(med), float64(1<<19)) > 0.1 {
		t.Errorf("median %d, want ~%d", med, 1<<19)
	}
	if q0 := d.Quantile(0); q0 > d.Quantile(1) {
		t.Error("quantiles must be monotone")
	}
}

func TestDyadicMergeAndBounds(t *testing.T) {
	a := NewDyadicCountMin(10, 512, 4, 34)
	b := NewDyadicCountMin(10, 512, 4, 34)
	for i := uint64(0); i < 512; i++ {
		a.Add(i, 1)
		b.Add(i+512, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 1024 {
		t.Errorf("merged N = %d", a.N())
	}
	if got := a.RangeCount(0, 1023); got < 1024 {
		t.Errorf("full-range count %d < 1024", got)
	}
	if err := a.Merge(NewDyadicCountMin(11, 512, 4, 34)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across levels must fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-domain Add must panic")
			}
		}()
		a.Add(1<<10, 1)
	}()
}

func TestDyadicHeavyHitters(t *testing.T) {
	d := NewDyadicCountMin(16, 2048, 5, 36)
	rng := randx.New(37)
	// Three hot values among uniform noise.
	hot := []uint64{100, 5000, 60000}
	const n = 100000
	for i := 0; i < n; i++ {
		switch {
		case i%10 < 2:
			d.Add(hot[0], 1)
		case i%10 < 3:
			d.Add(hot[1], 1)
		case i%10 < 4:
			d.Add(hot[2], 1)
		default:
			d.Add(uint64(rng.Intn(1<<16)), 1)
		}
	}
	got := d.HeavyHitters(0.05)
	found := map[uint64]bool{}
	for _, vc := range got {
		found[vc.Value] = true
	}
	for _, h := range hot {
		if !found[h] {
			t.Errorf("heavy value %d missed (got %v)", h, got)
		}
	}
	// The hottest (20%) value must rank first.
	if len(got) == 0 || got[0].Value != hot[0] {
		t.Errorf("hottest value not ranked first: %v", got)
	}
	// No value below ~2% should appear at a 5% threshold (CM noise
	// bound makes a little slack necessary).
	for _, vc := range got {
		if vc.Count < uint64(0.02*n) {
			t.Errorf("spurious heavy hitter %v", vc)
		}
	}
}

func TestDyadicRangeEdgeCases(t *testing.T) {
	d := NewDyadicCountMin(8, 128, 3, 35)
	for i := uint64(0); i < 256; i++ {
		d.Add(i, 1)
	}
	if d.RangeCount(5, 4) != 0 {
		t.Error("inverted range should be 0")
	}
	if got := d.RangeCount(0, 0); got < 1 {
		t.Error("single-point range lost")
	}
	if got := d.RangeCount(0, 10000); got < 256 {
		t.Error("clamped range lost items")
	}
}

func BenchmarkCountMinAdd(b *testing.B) {
	cm := NewCountMin(2048, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.AddUint64(uint64(i), 1)
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	cm := NewCountMin(2048, 5, 1)
	for i := 0; i < 100000; i++ {
		cm.AddUint64(uint64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.EstimateUint64(uint64(i))
	}
}

func BenchmarkCountSketchAdd(b *testing.B) {
	cs := NewCountSketch(2048, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.AddUint64(uint64(i), 1)
	}
}

func BenchmarkSpaceSavingAdd(b *testing.B) {
	ss := NewSpaceSaving(1024)
	rng := randx.New(1)
	z := randx.NewZipf(rng, 1.1, 1<<20)
	items := make([]string, 4096)
	for i := range items {
		items[i] = fmt.Sprint(z.Next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Add(items[i%len(items)], 1)
	}
}
