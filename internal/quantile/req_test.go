package quantile

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

// relativeTailErr returns |rank(est) − target| / (n − target): the
// rank error normalized by distance from the top — the quantity REQ
// bounds.
func relativeTailErr(sorted []float64, est float64, q float64) float64 {
	n := float64(len(sorted))
	i := sort.SearchFloat64s(sorted, est)
	for i < len(sorted) && sorted[i] == est {
		i++
	}
	target := q * n
	tail := n - target
	if tail < 1 {
		tail = 1
	}
	return math.Abs(float64(i)-target) / tail
}

func TestREQTailRelativeError(t *testing.T) {
	const n = 200000
	rng := randx.New(1)
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Exp(rng.Normal() * 2)
	}
	s := NewREQ(32, 2)
	for _, v := range data {
		s.Add(v)
	}
	ref := append([]float64(nil), data...)
	sort.Float64s(ref)
	// Relative (tail-normalized) error must stay bounded even at
	// extreme quantiles — the REQ guarantee. 0.35 is generous slack on
	// epsilon ~ c/k.
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if re := relativeTailErr(ref, s.Quantile(q), q); re > 0.35 {
			t.Errorf("q=%v: relative tail error %.3f", q, re)
		}
	}
}

func TestREQBeatsKLLInDeepTail(t *testing.T) {
	// The headline of the PODS 2021 paper: at matched space, REQ's
	// tail-normalized error beats an additive-guarantee sketch in the
	// deep tail. Compare mean tail errors over trials.
	const n = 100000
	var reqErr, kllErr float64
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		rng := randx.New(uint64(trial) + 10)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.Float64()
		}
		req := NewREQ(32, uint64(trial)+20)
		for _, v := range data {
			req.Add(v)
		}
		kll := NewKLL(req.RetainedItems()*2/3, uint64(trial)+30) // match space approx
		for _, v := range data {
			kll.Add(v)
		}
		ref := append([]float64(nil), data...)
		sort.Float64s(ref)
		for _, q := range []float64{0.999, 0.9995, 0.9999} {
			reqErr += relativeTailErr(ref, req.Quantile(q), q)
			kllErr += relativeTailErr(ref, kll.Quantile(q), q)
		}
	}
	if reqErr >= kllErr {
		t.Errorf("REQ deep-tail error %.3f not better than KLL %.3f", reqErr, kllErr)
	}
}

func TestREQMaxExact(t *testing.T) {
	s := NewREQ(16, 3)
	rng := randx.New(4)
	maxSeen := math.Inf(-1)
	for i := 0; i < 100000; i++ {
		v := rng.Normal()
		s.Add(v)
		if v > maxSeen {
			maxSeen = v
		}
	}
	if s.Max() != maxSeen || s.Quantile(1) != maxSeen {
		t.Error("REQ lost the maximum")
	}
}

func TestREQSpaceSublinear(t *testing.T) {
	s := NewREQ(32, 5)
	rng := randx.New(6)
	for i := 0; i < 1000000; i++ {
		s.Add(rng.Float64())
	}
	if s.RetainedItems() > 20000 {
		t.Errorf("REQ retained %d items for n=1e6", s.RetainedItems())
	}
	if s.N() != 1000000 {
		t.Errorf("N = %d", s.N())
	}
}

func TestREQMidQuantilesReasonable(t *testing.T) {
	const n = 100000
	s := NewREQ(32, 7)
	rng := randx.New(8)
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64()
		s.Add(data[i])
	}
	sort.Float64s(data)
	// Mid quantiles only need additive accuracy.
	for _, q := range []float64{0.25, 0.5, 0.75} {
		est := s.Quantile(q)
		i := sort.SearchFloat64s(data, est)
		if math.Abs(float64(i)-q*n)/n > 0.05 {
			t.Errorf("q=%v rank error %.3f", q, math.Abs(float64(i)-q*n)/n)
		}
	}
}

func TestREQMerge(t *testing.T) {
	a := NewREQ(32, 9)
	b := NewREQ(32, 10)
	all := make([]float64, 0, 100000)
	rng := randx.New(11)
	for i := 0; i < 50000; i++ {
		va, vb := rng.Float64(), rng.Float64()+0.3
		a.Add(va)
		b.Add(vb)
		all = append(all, va, vb)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 100000 {
		t.Errorf("merged N = %d", a.N())
	}
	sort.Float64s(all)
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if re := relativeTailErr(all, a.Quantile(q), q); re > 0.5 {
			t.Errorf("merged q=%v relative tail error %.3f", q, re)
		}
	}
	if err := a.Merge(NewREQ(16, 12)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across k must fail")
	}
}

func TestREQSerialization(t *testing.T) {
	s := NewREQ(32, 13)
	rng := randx.New(14)
	for i := 0; i < 50000; i++ {
		s.Add(rng.Float64())
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g REQ
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if g.Quantile(q) != s.Quantile(q) {
			t.Fatal("round trip changed quantiles")
		}
	}
	if g.N() != s.N() || g.Max() != s.Max() {
		t.Error("round trip changed metadata")
	}
	if err := g.UnmarshalBinary(data[:9]); !errors.Is(err, core.ErrCorrupt) {
		t.Error("truncated input accepted")
	}
}

func TestREQPanicsAndOddK(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for k < 4")
			}
		}()
		NewREQ(2, 1)
	}()
	s := NewREQ(5, 1) // odd k rounds up
	if s.k%2 != 0 {
		t.Error("k should be even")
	}
}

func BenchmarkREQAdd(b *testing.B) {
	s := NewREQ(32, 1)
	rng := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
	}
}
