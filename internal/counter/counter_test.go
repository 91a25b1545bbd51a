package counter

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

func TestMorrisAccuracyBase2(t *testing.T) {
	// Base-2 Morris has RSE ~ 0.7; average many trials to test
	// unbiasedness rather than per-trial accuracy.
	const n = 100000
	const trials = 400
	var sum float64
	for trial := 0; trial < trials; trial++ {
		m := NewMorris(uint64(trial))
		for i := 0; i < n; i++ {
			m.Increment()
		}
		sum += m.Count()
	}
	mean := sum / trials
	if math.Abs(mean-n)/n > 0.15 {
		t.Errorf("mean estimate %.0f over %d trials, want ~%d (unbiasedness)", mean, trials, n)
	}
}

func TestMorrisIncrementNMatchesIncrement(t *testing.T) {
	// The fast-forward path must produce the same estimate
	// distribution as unit increments: compare means over trials.
	const n = 200000
	const trials = 120
	var sumUnit, sumBatch float64
	for trial := 0; trial < trials; trial++ {
		unit := NewMorrisBase(1.3, uint64(trial)+1)
		for i := 0; i < n; i++ {
			unit.Increment()
		}
		batch := NewMorrisBase(1.3, uint64(trial)+7001)
		batch.IncrementN(n)
		sumUnit += unit.Count()
		sumBatch += batch.Count()
	}
	meanUnit, meanBatch := sumUnit/trials, sumBatch/trials
	if math.Abs(meanUnit-meanBatch)/meanUnit > 0.15 {
		t.Errorf("IncrementN mean %.0f deviates from Increment mean %.0f", meanBatch, meanUnit)
	}
	if math.Abs(meanBatch-n)/n > 0.15 {
		t.Errorf("IncrementN mean %.0f deviates from true %d", meanBatch, n)
	}
}

func TestMorrisIncrementNHugeFast(t *testing.T) {
	m := NewMorrisBase(1.05, 9)
	m.IncrementN(1 << 40) // must return in microseconds, not hours
	if err := core.RelErr(m.Count(), float64(uint64(1)<<40)); err > 1 {
		t.Errorf("rel err %.3f after 2^40 fast increments", err)
	}
}

func TestMorrisSmallBaseAccuracy(t *testing.T) {
	// Base 1.08 should give ~20%% RSE; single trials land close.
	const n = 500000
	m := NewMorrisBase(1.08, 7)
	for i := 0; i < n; i++ {
		m.Increment()
	}
	if err := core.RelErr(m.Count(), n); err > 0.8 {
		t.Errorf("base-1.08 estimate %.0f, rel err %.2f too large", m.Count(), err)
	}
}

func TestMorrisSpaceIsDoubleLog(t *testing.T) {
	// The stored exponent after n increments is ~log2(n), so its
	// bit-length is ~log2 log2 n — exponentially smaller than the
	// exact counter. This is the E1 headline.
	m := NewMorris(3)
	const n = 1 << 20
	for i := 0; i < n; i++ {
		m.Increment()
	}
	if m.BitsUsed() > 8 {
		t.Errorf("Morris used %d bits for n=2^20; expected ~5", m.BitsUsed())
	}
	if ExactBits(n) != 21 {
		t.Errorf("ExactBits(2^20) = %d, want 21", ExactBits(n))
	}
}

func TestMorrisCountMonotoneInExponent(t *testing.T) {
	m := NewMorris(1)
	prev := m.Count()
	for m.x < 30 {
		m.x++
		if c := m.Count(); c <= prev {
			t.Fatal("Count must grow with exponent")
		} else {
			prev = c
		}
	}
}

func TestMorrisMergePreservesTotal(t *testing.T) {
	// Average of merged estimates should approximate the combined count.
	const nA, nB = 40000, 60000
	const trials = 300
	var sum float64
	for trial := 0; trial < trials; trial++ {
		a := NewMorrisBase(1.2, uint64(trial)*2+1)
		b := NewMorrisBase(1.2, uint64(trial)*2+2)
		for i := 0; i < nA; i++ {
			a.Increment()
		}
		for i := 0; i < nB; i++ {
			b.Increment()
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		sum += a.Count()
	}
	mean := sum / trials
	if math.Abs(mean-(nA+nB))/(nA+nB) > 0.12 {
		t.Errorf("merged mean %.0f, want ~%d", mean, nA+nB)
	}
}

func TestMorrisMergeIncompatible(t *testing.T) {
	a := NewMorrisBase(1.5, 1)
	b := NewMorrisBase(2.0, 1)
	if err := a.Merge(b); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across bases must fail")
	}
}

func TestMorrisSerialization(t *testing.T) {
	m := NewMorrisBase(1.3, 5)
	for i := 0; i < 10000; i++ {
		m.Increment()
	}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Morris
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.Count() != m.Count() || g.Base() != m.Base() || g.Exponent() != m.Exponent() {
		t.Error("round trip changed state")
	}
	if err := g.UnmarshalBinary(data[:7]); !errors.Is(err, core.ErrCorrupt) {
		t.Error("truncated input accepted")
	}
}

func TestMorrisPanicsOnBadBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for base <= 1")
		}
	}()
	NewMorrisBase(1.0, 1)
}

func TestMorrisRSEFormula(t *testing.T) {
	m := NewMorrisBase(1.5, 1)
	if got, want := m.RelativeStandardError(), math.Sqrt(0.25); math.Abs(got-want) > 1e-12 {
		t.Errorf("RSE = %v, want %v", got, want)
	}
}

func TestNelsonYuAccuracy(t *testing.T) {
	const n = 200000
	c := NewNelsonYu(0.2, 0.05, 11)
	for i := 0; i < n; i++ {
		increment(c)
	}
	if err := core.RelErr(c.Count(), n); err > 0.3 {
		t.Errorf("NelsonYu rel err %.3f exceeds budget (eps=0.2 + slack)", err)
	}
}

func TestNelsonYuMedianBeatsOneCopy(t *testing.T) {
	// With many repetitions the median estimate should be much more
	// reliable than a single base-matched Morris counter. Measure the
	// failure rate of both across trials.
	const n = 50000
	const trials = 60
	eps := 0.3
	failuresSingle, failuresMedian := 0, 0
	for trial := 0; trial < trials; trial++ {
		ny := NewNelsonYu(eps, 0.05, uint64(trial)+100)
		single := NewMorrisBase(1+2*eps*eps, uint64(trial)+5000)
		for i := 0; i < n; i++ {
			increment(ny)
			single.Increment()
		}
		if core.RelErr(ny.Count(), n) > eps*1.5 {
			failuresMedian++
		}
		if core.RelErr(single.Count(), n) > eps*1.5 {
			failuresSingle++
		}
	}
	if failuresMedian > failuresSingle {
		t.Errorf("median amplification did not help: median failures %d vs single %d",
			failuresMedian, failuresSingle)
	}
	if failuresMedian > trials/5 {
		t.Errorf("NelsonYu failed %d/%d trials", failuresMedian, trials)
	}
}

func TestNelsonYuOddRepetitions(t *testing.T) {
	c := NewNelsonYu(0.1, 0.01, 1)
	if c.Repetitions()%2 == 0 {
		t.Error("repetition count should be odd for a clean median")
	}
	if c.eps != 0.1 || c.delta != 0.01 {
		t.Errorf("eps, delta = %v, %v", c.eps, c.delta)
	}
}

func TestNelsonYuMerge(t *testing.T) {
	a := NewNelsonYu(0.2, 0.1, 1)
	b := NewNelsonYu(0.2, 0.1, 2)
	for i := 0; i < 10000; i++ {
		increment(a)
		increment(b)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := core.RelErr(a.Count(), 20000); err > 0.5 {
		t.Errorf("merged estimate rel err %.3f", err)
	}
	c := NewNelsonYu(0.3, 0.1, 3)
	if err := a.Merge(c); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across specs must fail")
	}
}

func TestNelsonYuSerialization(t *testing.T) {
	c := NewNelsonYu(0.25, 0.1, 9)
	for i := 0; i < 5000; i++ {
		increment(c)
	}
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g NelsonYu
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.Count() != c.Count() {
		t.Error("round trip changed estimate")
	}
	if g.Repetitions() != c.Repetitions() {
		t.Error("round trip changed repetitions")
	}
}

func TestNelsonYuPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNelsonYu(0, 0.5, 1)
}

func TestExactBits(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 1 << 30: 31}
	for n, want := range cases {
		if got := ExactBits(n); got != want {
			t.Errorf("ExactBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func BenchmarkMorrisIncrement(b *testing.B) {
	m := NewMorris(1)
	for i := 0; i < b.N; i++ {
		m.Increment()
	}
}

func BenchmarkNelsonYuIncrement(b *testing.B) {
	c := NewNelsonYu(0.1, 0.05, 1)
	for i := 0; i < b.N; i++ {
		increment(c)
	}
}

// increment registers one event in every repetition of a Nelson–Yu
// counter, one Morris increment each.
func increment(c *NelsonYu) {
	for _, m := range c.counters {
		m.Increment()
	}
}
