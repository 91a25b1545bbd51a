package sample

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hashx"
)

func TestReservoirUniformInclusion(t *testing.T) {
	// Over many trials, every stream position should land in the
	// sample with probability k/n.
	const k, n, trials = 10, 200, 3000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(k, uint64(trial))
		for i := 0; i < n; i++ {
			r.Add(hashx.Uint64Bytes(uint64(i)))
		}
		for _, it := range r.Sample() {
			var v uint64
			for b := 7; b >= 0; b-- {
				v = v<<8 | uint64(it[b])
			}
			counts[v]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	sigma := math.Sqrt(want)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*sigma {
			t.Errorf("position %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestReservoirFillsBelowK(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 0; i < 50; i++ {
		r.Add([]byte(fmt.Sprint(i)))
	}
	if len(r.Sample()) != 50 {
		t.Errorf("sample size %d, want 50", len(r.Sample()))
	}
	if r.N() != 50 || r.K() != 100 {
		t.Error("metadata wrong")
	}
}

func TestReservoirMergeUniform(t *testing.T) {
	// After merging reservoirs over two streams, inclusion probability
	// should be roughly uniform over the union.
	const k, nA, nB, trials = 8, 100, 300, 4000
	counts := make([]int, nA+nB)
	for trial := 0; trial < trials; trial++ {
		a := NewReservoir(k, uint64(trial)*2+1)
		b := NewReservoir(k, uint64(trial)*2+2)
		for i := 0; i < nA; i++ {
			a.Add(hashx.Uint64Bytes(uint64(i)))
		}
		for i := nA; i < nA+nB; i++ {
			b.Add(hashx.Uint64Bytes(uint64(i)))
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if len(a.Sample()) != k {
			t.Fatalf("merged sample size %d", len(a.Sample()))
		}
		for _, it := range a.Sample() {
			var v uint64
			for b := 7; b >= 0; b-- {
				v = v<<8 | uint64(it[b])
			}
			counts[v]++
		}
	}
	want := float64(trials) * float64(k) / float64(nA+nB)
	sigma := math.Sqrt(want)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 7*sigma {
			t.Errorf("position %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
	a := NewReservoir(4, 1)
	if err := a.Merge(NewReservoir(8, 2)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across capacities must fail")
	}
}

func TestReservoirSerialization(t *testing.T) {
	r := NewReservoir(16, 5)
	for i := 0; i < 1000; i++ {
		r.Add([]byte(fmt.Sprint(i)))
	}
	data, _ := r.MarshalBinary()
	var g Reservoir
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.N() != r.N() || len(g.Sample()) != len(r.Sample()) {
		t.Error("round trip changed state")
	}
	for i := range r.Sample() {
		if string(g.Sample()[i]) != string(r.Sample()[i]) {
			t.Fatal("round trip changed sample")
		}
	}
}

func TestWeightedReservoirFavorsHeavy(t *testing.T) {
	// One item with weight 50 among 100 items of weight 1 should be
	// sampled much more often than 1/100.
	const trials = 2000
	hits := 0
	for trial := 0; trial < trials; trial++ {
		r := NewWeightedReservoir(1, uint64(trial))
		for i := 0; i < 100; i++ {
			w := 1.0
			if i == 42 {
				w = 50
			}
			r.Add(hashx.Uint64Bytes(uint64(i)), w)
		}
		if len(r.Sample()) == 1 && r.Sample()[0][0] == 42 {
			hits++
		}
	}
	// Expected inclusion ≈ 50/149 ≈ 1/3.
	frac := float64(hits) / trials
	if frac < 0.2 || frac > 0.5 {
		t.Errorf("heavy item sampled %.3f of trials, want ~0.33", frac)
	}
}

func TestWeightedReservoirPanics(t *testing.T) {
	r := NewWeightedReservoir(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive weight must panic")
		}
	}()
	r.Add([]byte("x"), 0)
}

func TestOneSparseRecovery(t *testing.T) {
	var c oneSparse
	const r = 123456789
	c.update(42, 7, r)
	idx, w, ok := c.recover(r)
	if !ok || idx != 42 || w != 7 {
		t.Fatalf("recover = (%d, %d, %v)", idx, w, ok)
	}
	// Add a second item: no longer 1-sparse.
	c.update(43, 1, r)
	if _, _, ok := c.recover(r); ok {
		t.Error("2-sparse cell decoded as 1-sparse")
	}
	// Remove it again: 1-sparse once more.
	c.update(43, -1, r)
	idx, w, ok = c.recover(r)
	if !ok || idx != 42 || w != 7 {
		t.Error("cell did not return to 1-sparse after cancellation")
	}
	// Cancel everything: empty.
	c.update(42, -7, r)
	if _, _, ok := c.recover(r); ok {
		t.Error("empty cell decoded")
	}
}

func TestSparseRecoveryFull(t *testing.T) {
	sr := NewSparseRecovery(8, 1)
	want := map[uint64]int64{5: 3, 900: -2, 77: 10, 12345: 1}
	for idx, w := range want {
		sr.Update(idx, w)
	}
	got := sr.Recover()
	for idx, w := range want {
		if got[idx] != w {
			t.Errorf("recovered[%d] = %d, want %d", idx, got[idx], w)
		}
	}
}

func TestSparseRecoveryAfterDeletions(t *testing.T) {
	sr := NewSparseRecovery(4, 2)
	// Insert 100 items, delete 98 — recovery must find the 2 survivors.
	for i := uint64(0); i < 100; i++ {
		sr.Update(i, 5)
	}
	for i := uint64(0); i < 98; i++ {
		sr.Update(i, -5)
	}
	got := sr.Recover()
	if got[98] != 5 || got[99] != 5 {
		t.Errorf("recovered %v, want {98:5, 99:5}", got)
	}
}

func TestSparseRecoveryMerge(t *testing.T) {
	a := NewSparseRecovery(4, 3)
	b := NewSparseRecovery(4, 3)
	a.Update(10, 2)
	b.Update(20, 3)
	b.Update(10, -2) // cancels a's item after merge
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Recover()
	if got[20] != 3 {
		t.Errorf("recovered %v", got)
	}
	if _, ok := got[10]; ok {
		t.Error("cancelled item recovered")
	}
	if err := a.Merge(NewSparseRecovery(4, 4)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across seeds must fail")
	}
}

func TestL0SamplerBasic(t *testing.T) {
	l := NewL0Sampler(12, 1)
	members := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		l.Update(i*7, 1)
		members[i*7] = true
	}
	idx, w, ok := l.Sample()
	if !ok {
		t.Fatal("sampler failed on 1000-item support")
	}
	if !members[idx] {
		t.Fatalf("sampled %d not in support", idx)
	}
	if w != 1 {
		t.Errorf("weight %d, want 1", w)
	}
}

func TestL0SamplerSurvivesDeletions(t *testing.T) {
	// The strict-turnstile stress: insert many, delete all but one.
	l := NewL0Sampler(12, 2)
	for i := uint64(0); i < 5000; i++ {
		l.Update(i, 1)
	}
	for i := uint64(0); i < 5000; i++ {
		if i != 1234 {
			l.Update(i, -1)
		}
	}
	idx, w, ok := l.Sample()
	if !ok || idx != 1234 || w != 1 {
		t.Fatalf("Sample = (%d, %d, %v), want (1234, 1, true)", idx, w, ok)
	}
}

func TestL0SamplerEmpty(t *testing.T) {
	l := NewL0Sampler(8, 3)
	if _, _, ok := l.Sample(); ok {
		t.Error("empty sampler returned a sample")
	}
	l.Update(5, 1)
	l.Update(5, -1)
	if _, _, ok := l.Sample(); ok {
		t.Error("fully cancelled sampler returned a sample")
	}
}

func TestL0SamplerMergeLinear(t *testing.T) {
	a := NewL0Sampler(12, 4)
	b := NewL0Sampler(12, 4)
	a.Update(100, 1)
	b.Update(100, -1) // cancels across the merge
	b.Update(200, 1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	idx, _, ok := a.Sample()
	if !ok || idx != 200 {
		t.Fatalf("merged sample = (%d, %v), want (200, true)", idx, ok)
	}
	if err := a.Merge(NewL0Sampler(12, 5)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across seeds must fail")
	}
}

func TestSparseRecoverySerialization(t *testing.T) {
	sr := NewSparseRecovery(8, 31)
	for i := uint64(0); i < 6; i++ {
		sr.Update(i*1000, int64(i)+1)
	}
	data, err := sr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g SparseRecovery
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	got := g.Recover()
	for i := uint64(0); i < 6; i++ {
		if got[i*1000] != int64(i)+1 {
			t.Fatalf("round trip lost item %d", i*1000)
		}
	}
	if err := g.UnmarshalBinary(data[:10]); !errors.Is(err, core.ErrCorrupt) {
		t.Error("truncated input accepted")
	}
}

func TestL0SamplerSerializationAndRemoteMerge(t *testing.T) {
	// The distributed AGM story: a sampler built on machine A is
	// serialized, restored on machine B, and merged with B's — the
	// merged sampler behaves as if both streams hit one sketch.
	a := NewL0Sampler(12, 33)
	b := NewL0Sampler(12, 33)
	for i := uint64(0); i < 500; i++ {
		a.Update(i, 1)
	}
	for i := uint64(0); i < 500; i++ {
		b.Update(i, -1) // B cancels A entirely...
	}
	b.Update(777777, 5) // ...except one survivor
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored L0Sampler
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if err := restored.Merge(b); err != nil {
		t.Fatal(err)
	}
	idx, w, ok := restored.Sample()
	if !ok || idx != 777777 || w != 5 {
		t.Fatalf("Sample = (%d, %d, %v), want (777777, 5, true)", idx, w, ok)
	}
}

func TestL0SamplerSpread(t *testing.T) {
	// Samples across independent sampler instances should spread over
	// the support rather than fixating on one element.
	support := 50
	seen := map[uint64]bool{}
	for trial := 0; trial < 200; trial++ {
		l := NewL0Sampler(12, uint64(trial)+100)
		for i := uint64(0); i < uint64(support); i++ {
			l.Update(i, 1)
		}
		if idx, _, ok := l.Sample(); ok {
			seen[idx] = true
		}
	}
	if len(seen) < support/4 {
		t.Errorf("only %d distinct elements sampled from support of %d", len(seen), support)
	}
}

func BenchmarkReservoirAdd(b *testing.B) {
	r := NewReservoir(1024, 1)
	item := []byte("benchmark-item")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(item)
	}
}

func BenchmarkL0Update(b *testing.B) {
	l := NewL0Sampler(12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Update(uint64(i), 1)
	}
}
