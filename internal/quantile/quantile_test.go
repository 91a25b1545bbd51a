package quantile

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

// rankErr computes the normalized rank error of estimate est for target
// quantile q against the full sorted data.
func rankErr(sorted []float64, est float64, q float64) float64 {
	i := sort.SearchFloat64s(sorted, est)
	for i < len(sorted) && sorted[i] == est {
		i++
	}
	want := q * float64(len(sorted))
	return math.Abs(float64(i)-want) / float64(len(sorted))
}

// datasets used across the summaries: uniform, zipf-like skew, sorted
// (adversarial for naive buffering), and reversed.
func datasets(n int, seed uint64) map[string][]float64 {
	rng := randx.New(seed)
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64() * 1000
	}
	skew := make([]float64, n)
	for i := range skew {
		skew[i] = math.Exp(rng.Normal() * 2) // lognormal: heavy right tail
	}
	sorted := make([]float64, n)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	reversed := make([]float64, n)
	for i := range reversed {
		reversed[i] = float64(n - i)
	}
	return map[string][]float64{
		"uniform": uniform, "lognormal": skew, "sorted": sorted, "reversed": reversed,
	}
}

var probeQs = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}

func TestGKRankGuarantee(t *testing.T) {
	const n = 20000
	const eps = 0.01
	for name, data := range datasets(n, 1) {
		g := NewGK(eps)
		for _, v := range data {
			g.Add(v)
		}
		sortedData := append([]float64(nil), data...)
		sort.Float64s(sortedData)
		for _, q := range probeQs {
			if re := rankErr(sortedData, g.Quantile(q), q); re > 2*eps {
				t.Errorf("%s q=%.2f: rank error %.4f > %.4f", name, q, re, 2*eps)
			}
		}
	}
}

func TestGKSpaceSublinear(t *testing.T) {
	g := NewGK(0.01)
	const n = 100000
	rng := randx.New(2)
	for i := 0; i < n; i++ {
		g.Add(rng.Float64())
	}
	if len(g.tuples) > n/20 {
		t.Errorf("GK stored %d tuples for n=%d — compression not working", len(g.tuples), n)
	}
	if g.N() != n {
		t.Errorf("N = %d", g.N())
	}
}

func TestGKMergeKeepsApproximateGuarantee(t *testing.T) {
	const n = 10000
	const eps = 0.02
	a, b := NewGK(eps), NewGK(eps)
	all := make([]float64, 0, 2*n)
	rng := randx.New(3)
	for i := 0; i < n; i++ {
		va, vb := rng.Float64(), rng.Float64()+0.5
		a.Add(va)
		b.Add(vb)
		all = append(all, va, vb)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(all)
	for _, q := range probeQs {
		if re := rankErr(all, a.Quantile(q), q); re > 3*eps {
			t.Errorf("merged GK q=%.2f rank error %.4f", q, re)
		}
	}
	if err := a.Merge(NewGK(0.1)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across eps must fail")
	}
}

func TestGKSerialization(t *testing.T) {
	g := NewGK(0.01)
	rng := randx.New(99)
	for i := 0; i < 20000; i++ {
		g.Add(rng.Float64())
	}
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h GK
	if err := h.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, q := range probeQs {
		if h.Quantile(q) != g.Quantile(q) {
			t.Fatal("round trip changed quantiles")
		}
	}
	if h.N() != g.N() || h.Eps() != g.Eps() {
		t.Error("round trip changed metadata")
	}
	// Gap-sum consistency check rejects tampering.
	bad := append([]byte(nil), data...)
	bad[15]++ // perturb n
	var x GK
	if err := x.UnmarshalBinary(bad); !errors.Is(err, core.ErrCorrupt) {
		t.Error("inconsistent n accepted")
	}
}

func TestKLLRankGuarantee(t *testing.T) {
	const n = 50000
	for name, data := range datasets(n, 4) {
		s := NewKLL(200, 5)
		for _, v := range data {
			s.Add(v)
		}
		sortedData := append([]float64(nil), data...)
		sort.Float64s(sortedData)
		for _, q := range probeQs {
			if re := rankErr(sortedData, s.Quantile(q), q); re > 3*s.Eps() {
				t.Errorf("%s q=%.2f: rank error %.4f > %.4f", name, q, re, 3*s.Eps())
			}
		}
	}
}

func TestKLLSpaceSublinear(t *testing.T) {
	s := NewKLL(200, 6)
	const n = 1000000
	rng := randx.New(7)
	for i := 0; i < n; i++ {
		s.Add(rng.Float64())
	}
	if s.RetainedItems() > 3000 {
		t.Errorf("KLL retained %d items for n=%d", s.RetainedItems(), n)
	}
}

func TestKLLMinMaxExact(t *testing.T) {
	s := NewKLL(64, 8)
	rng := randx.New(9)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 100000; i++ {
		v := rng.Normal()
		s.Add(v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if s.Min() != lo || s.Max() != hi {
		t.Error("KLL min/max not exact")
	}
	if s.Quantile(0) != lo || s.Quantile(1) != hi {
		t.Error("extreme quantiles must return exact min/max")
	}
}

func TestKLLMergeGuarantee(t *testing.T) {
	const shards = 16
	const perShard = 5000
	whole := make([]float64, 0, shards*perShard)
	merged := NewKLL(200, 10)
	rng := randx.New(11)
	for sh := 0; sh < shards; sh++ {
		s := NewKLL(200, uint64(100+sh))
		for i := 0; i < perShard; i++ {
			v := rng.Float64()*float64(sh+1) - float64(sh)/2
			s.Add(v)
			whole = append(whole, v)
		}
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	sort.Float64s(whole)
	for _, q := range probeQs {
		if re := rankErr(whole, merged.Quantile(q), q); re > 4*merged.Eps() {
			t.Errorf("merged KLL q=%.2f rank error %.4f", q, re)
		}
	}
	if merged.N() != shards*perShard {
		t.Errorf("merged N = %d", merged.N())
	}
	if err := merged.Merge(NewKLL(64, 1)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across k must fail")
	}
}

func TestQDigestRankGuarantee(t *testing.T) {
	const n = 50000
	const logU = 16
	const k = 2048
	rng := randx.New(16)
	qd := NewQDigest(logU, k)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		v := uint64(rng.Intn(1 << logU))
		qd.Add(v, 1)
		vals[i] = float64(v)
	}
	sort.Float64s(vals)
	// Error bound: (logU/k)*n plus quantile discretization.
	bound := 3 * float64(logU) / float64(k)
	for _, q := range probeQs {
		est := float64(qd.Quantile(q))
		if re := rankErr(vals, est, q); re > bound+0.01 {
			t.Errorf("q=%.2f: rank error %.4f > %.4f", q, re, bound+0.01)
		}
	}
}

func TestQDigestCompression(t *testing.T) {
	qd := NewQDigest(20, 100)
	rng := randx.New(17)
	for i := 0; i < 100000; i++ {
		qd.Add(uint64(rng.Intn(1<<20)), 1)
	}
	qd.Compress()
	// Space should be O(k log U), far below distinct count.
	if qd.NodeCount() > 100*20*3 {
		t.Errorf("q-digest holds %d nodes, want O(k logU)", qd.NodeCount())
	}
}

func TestQDigestWeightedAndMerge(t *testing.T) {
	a := NewQDigest(10, 64)
	b := NewQDigest(10, 64)
	for v := uint64(0); v < 512; v++ {
		a.Add(v, 3)
		b.Add(v+512, 3)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 1024*3 {
		t.Errorf("merged N = %d", a.N())
	}
	med := a.Quantile(0.5)
	if med < 400 || med > 624 {
		t.Errorf("merged median %d, want ~512", med)
	}
	if err := a.Merge(NewQDigest(11, 64)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across domains must fail")
	}
}

func TestQDigestSerialization(t *testing.T) {
	qd := NewQDigest(12, 128)
	rng := randx.New(18)
	for i := 0; i < 20000; i++ {
		qd.Add(uint64(rng.Intn(1<<12)), 1)
	}
	data, _ := qd.MarshalBinary()
	var g QDigest
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, q := range probeQs {
		if g.Quantile(q) != qd.Quantile(q) {
			t.Fatal("round trip changed quantiles")
		}
	}
	// Corrupted count sum must be rejected.
	bad := append([]byte(nil), data...)
	bad[15]++ // perturb n
	var h QDigest
	if err := h.UnmarshalBinary(bad); err == nil {
		t.Error("inconsistent n accepted")
	}
}

func TestQDigestPanics(t *testing.T) {
	qd := NewQDigest(8, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-domain value must panic")
		}
	}()
	qd.Add(256, 1)
}

func TestTDigestAccuracyMidAndTail(t *testing.T) {
	const n = 100000
	td := NewTDigest(100)
	rng := randx.New(19)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Normal()
		td.Add(v)
		vals[i] = v
	}
	sort.Float64s(vals)
	for _, q := range probeQs {
		if re := rankErr(vals, td.Quantile(q), q); re > 0.02 {
			t.Errorf("q=%.2f rank error %.4f", q, re)
		}
	}
	// Tail quantiles should be very tight (t-digest's design goal).
	for _, q := range []float64{0.001, 0.999} {
		if re := rankErr(vals, td.Quantile(q), q); re > 0.005 {
			t.Errorf("tail q=%.3f rank error %.4f", q, re)
		}
	}
}

func TestTDigestTailBeatsMiddle(t *testing.T) {
	// E6a: relative rank error at the 99.9th percentile should be no
	// worse than at the median, thanks to the k1 scale function.
	const n = 200000
	td := NewTDigest(100)
	rng := randx.New(20)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		v := math.Exp(rng.Normal())
		td.Add(v)
		vals[i] = v
	}
	sort.Float64s(vals)
	tail := rankErr(vals, td.Quantile(0.999), 0.999)
	mid := rankErr(vals, td.Quantile(0.5), 0.5)
	if tail > mid+0.002 {
		t.Errorf("tail error %.5f worse than mid %.5f", tail, mid)
	}
}

func TestTDigestCentroidBudget(t *testing.T) {
	td := NewTDigest(100)
	rng := randx.New(21)
	for i := 0; i < 500000; i++ {
		td.Add(rng.Float64())
	}
	td.flush()
	if c := len(td.centroids); c > 200 {
		t.Errorf("t-digest holds %d centroids for delta=100", c)
	}
}

func TestTDigestMerge(t *testing.T) {
	a, b := NewTDigest(100), NewTDigest(100)
	all := make([]float64, 0, 60000)
	rng := randx.New(22)
	for i := 0; i < 30000; i++ {
		va, vb := rng.Normal(), rng.Normal()+3
		a.Add(va)
		b.Add(vb)
		all = append(all, va, vb)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(all)
	for _, q := range probeQs {
		if re := rankErr(all, a.Quantile(q), q); re > 0.03 {
			t.Errorf("merged q=%.2f rank error %.4f", q, re)
		}
	}
	if err := a.Merge(NewTDigest(50)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across compressions must fail")
	}
}

func TestTDigestSerialization(t *testing.T) {
	td := NewTDigest(100)
	rng := randx.New(24)
	for i := 0; i < 10000; i++ {
		td.Add(rng.Normal())
	}
	data, _ := td.MarshalBinary()
	var g TDigest
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, q := range probeQs {
		if g.Quantile(q) != td.Quantile(q) {
			t.Fatal("round trip changed quantiles")
		}
	}
}

func TestMRLRankAccuracy(t *testing.T) {
	const n = 50000
	for name, data := range datasets(n, 25) {
		s := NewMRL(8, 512, 26)
		for _, v := range data {
			s.Add(v)
		}
		sortedData := append([]float64(nil), data...)
		sort.Float64s(sortedData)
		for _, q := range probeQs {
			if re := rankErr(sortedData, s.Quantile(q), q); re > 0.05 {
				t.Errorf("%s q=%.2f: rank error %.4f", name, q, re)
			}
		}
	}
}

func TestMRLSpaceBounded(t *testing.T) {
	s := NewMRL(8, 256, 27)
	rng := randx.New(28)
	for i := 0; i < 500000; i++ {
		s.Add(rng.Float64())
	}
	if s.RetainedItems() > 8*256 {
		t.Errorf("MRL retained %d items beyond buffer budget", s.RetainedItems())
	}
	if s.N() != 500000 {
		t.Errorf("N = %d", s.N())
	}
}

func TestMRLSerialization(t *testing.T) {
	s := NewMRL(4, 128, 29)
	rng := randx.New(30)
	for i := 0; i < 20000; i++ {
		s.Add(rng.Float64())
	}
	data, _ := s.MarshalBinary()
	var g MRL
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, q := range probeQs {
		if g.Quantile(q) != s.Quantile(q) {
			t.Fatal("round trip changed quantiles")
		}
	}
}

func TestExactBaseline(t *testing.T) {
	e := NewExact()
	for i := 10; i >= 1; i-- {
		e.Add(float64(i))
	}
	if e.Quantile(0) != 1 || e.Quantile(1) != 10 {
		t.Error("exact extremes wrong")
	}
	if e.Quantile(0.5) != 5 && e.Quantile(0.5) != 6 {
		t.Errorf("exact median = %v", e.Quantile(0.5))
	}
	if e.N() != 10 {
		t.Errorf("N = %d", e.N())
	}
	if math.IsNaN(e.Quantile(0.5)) {
		t.Error("non-empty exact returned NaN")
	}
	if !math.IsNaN(NewExact().Quantile(0.5)) {
		t.Error("empty exact should return NaN")
	}
}

func TestSpaceComparisonE6(t *testing.T) {
	// All sketches must be far below the exact baseline at n = 200k.
	const n = 200000
	rng := randx.New(31)
	gk := NewGK(0.01)
	kll := NewKLL(200, 32)
	td := NewTDigest(100)
	mrl := NewMRL(8, 512, 33)
	exact := NewExact()
	for i := 0; i < n; i++ {
		v := rng.Float64()
		gk.Add(v)
		kll.Add(v)
		td.Add(v)
		mrl.Add(v)
		exact.Add(v)
	}
	for name, size := range map[string]int{
		"gk": gk.SizeBytes(), "kll": kll.SizeBytes(),
		"tdigest": td.SizeBytes(), "mrl": mrl.SizeBytes(),
	} {
		if size > exact.SizeBytes()/20 {
			t.Errorf("%s uses %d bytes, not sublinear vs exact %d", name, size, exact.SizeBytes())
		}
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for name, fn := range map[string]func(){
		"gk":      func() { NewGK(0) },
		"kll":     func() { NewKLL(4, 1) },
		"qdigest": func() { NewQDigest(0, 4) },
		"tdigest": func() { NewTDigest(1) },
		"mrl":     func() { NewMRL(1, 4, 1) },
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

func BenchmarkKLLAdd(b *testing.B) {
	s := NewKLL(200, 1)
	rng := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
	}
}

func BenchmarkGKAdd(b *testing.B) {
	s := NewGK(0.01)
	rng := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
	}
}

func BenchmarkTDigestAdd(b *testing.B) {
	s := NewTDigest(100)
	rng := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
	}
}

func BenchmarkKLLQuantile(b *testing.B) {
	s := NewKLL(200, 1)
	rng := randx.New(1)
	for i := 0; i < 1000000; i++ {
		s.Add(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Quantile(0.99)
	}
}
