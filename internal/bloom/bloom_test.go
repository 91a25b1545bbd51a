package bloom

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hashx"
)

func key(i int) []byte { return hashx.Uint64Bytes(uint64(i)) }

func TestNoFalseNegatives(t *testing.T) {
	f := NewWithEstimates(10000, 0.01, 1)
	for i := 0; i < 10000; i++ {
		f.Add(key(i))
	}
	for i := 0; i < 10000; i++ {
		if !f.Contains(key(i)) {
			t.Fatalf("false negative for inserted key %d", i)
		}
	}
}

func TestFalsePositiveRateNearTheory(t *testing.T) {
	const n = 20000
	for _, target := range []float64{0.05, 0.01} {
		f := NewWithEstimates(n, target, 7)
		for i := 0; i < n; i++ {
			f.Add(key(i))
		}
		fp := 0
		const probes = 100000
		for i := 0; i < probes; i++ {
			if f.Contains(key(n + i)) {
				fp++
			}
		}
		got := float64(fp) / probes
		if got > 2.5*target {
			t.Errorf("target FPR %v: measured %v too high", target, got)
		}
		theory := TheoreticalFPR(f.M(), f.K(), n)
		if math.Abs(got-theory) > 3*theory+0.005 {
			t.Errorf("measured FPR %v far from theory %v", got, theory)
		}
	}
}

func TestEstimatedFPRTracksTheory(t *testing.T) {
	f := New(1<<16, 4, 3)
	for i := 0; i < 8000; i++ {
		f.Add(key(i))
	}
	est := f.EstimatedFPR()
	theory := TheoreticalFPR(f.M(), f.K(), 8000)
	if math.Abs(est-theory)/theory > 0.25 {
		t.Errorf("EstimatedFPR %v vs theory %v", est, theory)
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := New(128, 3, 1)
	for _, b := range []*Filter{New(256, 3, 1), New(128, 4, 1), New(128, 3, 2)} {
		if err := a.Merge(b); !errors.Is(err, core.ErrIncompatible) {
			t.Errorf("merge of mismatched filter did not fail: %v", err)
		}
	}
}

func TestSerializationPropertyRoundTrip(t *testing.T) {
	f := func(keys [][]byte) bool {
		fl := New(4096, 3, 2)
		for _, k := range keys {
			fl.Add(k)
		}
		data, err := fl.MarshalBinary()
		if err != nil {
			return false
		}
		var g Filter
		if err := g.UnmarshalBinary(data); err != nil {
			return false
		}
		for _, k := range keys {
			if !g.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero m":  func() { New(0, 3, 1) },
		"zero k":  func() { New(64, 0, 1) },
		"bad fpr": func() { NewWithEstimates(10, 1.5, 1) },
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

func TestStringHelpers(t *testing.T) {
	f := New(1024, 3, 1)
	f.AddString("hello")
	if !f.ContainsString("hello") {
		t.Error("string item lost")
	}
	f.Update([]byte("via-update"))
	if !f.Contains([]byte("via-update")) {
		t.Error("Update did not insert")
	}
}

func TestCountingAddRemove(t *testing.T) {
	f := NewCounting(1<<12, 4, 21)
	for i := 0; i < 500; i++ {
		f.Add(key(i))
	}
	for i := 0; i < 500; i++ {
		if !f.Contains(key(i)) {
			t.Fatal("counting filter false negative")
		}
	}
	for i := 0; i < 250; i++ {
		f.Remove(key(i))
	}
	for i := 250; i < 500; i++ {
		if !f.Contains(key(i)) {
			t.Fatal("removal corrupted remaining keys")
		}
	}
	removedStillPresent := 0
	for i := 0; i < 250; i++ {
		if f.Contains(key(i)) {
			removedStillPresent++
		}
	}
	if removedStillPresent > 25 {
		t.Errorf("%d/250 removed keys still appear present", removedStillPresent)
	}
}

func TestCountingMerge(t *testing.T) {
	a := NewCounting(1<<10, 3, 2)
	b := NewCounting(1<<10, 3, 2)
	a.Add(key(1))
	b.Add(key(2))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !a.Contains(key(1)) || !a.Contains(key(2)) {
		t.Error("merge lost keys")
	}
	if err := a.Merge(NewCounting(64, 3, 2)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("incompatible merge accepted")
	}
}

func TestCountingSaturation(t *testing.T) {
	f := NewCounting(8, 1, 3)
	item := []byte("hot")
	for i := 0; i < 70000; i++ {
		f.Add(item)
	}
	if !f.Contains(item) {
		t.Fatal("saturated counter lost item")
	}
	// Saturated counters must not decrement (no false negatives).
	for i := 0; i < 70000; i++ {
		f.Remove(item)
	}
	if !f.Contains(item) {
		t.Error("saturated counter decremented — false negatives possible")
	}
}

func TestCountingSerialization(t *testing.T) {
	f := NewCounting(100, 3, 8) // non-multiple-of-4 length exercises packing tail
	for i := 0; i < 50; i++ {
		f.Add(key(i))
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g CountingFilter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !g.Contains(key(i)) {
			t.Fatal("round trip lost key")
		}
	}
	if g.N() != f.N() {
		t.Error("N lost in round trip")
	}
}

func TestSizeBytes(t *testing.T) {
	f := New(1024, 3, 1)
	if f.SizeBytes() != 128 {
		t.Errorf("SizeBytes = %d, want 128", f.SizeBytes())
	}
	cf := NewCounting(1024, 3, 1)
	if cf.SizeBytes() != 2048 {
		t.Errorf("counting SizeBytes = %d, want 2048", cf.SizeBytes())
	}
}

func BenchmarkAdd(b *testing.B) {
	f := NewWithEstimates(uint64(b.N)+1, 0.01, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(key(i))
	}
}

func BenchmarkContains(b *testing.B) {
	f := NewWithEstimates(100000, 0.01, 1)
	for i := 0; i < 100000; i++ {
		f.Add(key(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(key(i))
	}
}

func ExampleFilter() {
	f := NewWithEstimates(1000, 0.01, 42)
	f.AddString("alice")
	f.AddString("bob")
	fmt.Println(f.ContainsString("alice"), f.ContainsString("mallory"))
	// Output: true false
}
