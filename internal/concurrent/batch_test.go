package concurrent

// Batch equivalence through the concurrent wrappers, exercised from
// many goroutines so the CI race job also proves the new batch entry
// points are data-race-free. Counter updates are commutative, so the
// final state must exactly match a single-threaded reference fed the
// same inputs.

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/frequency"
	"repro/internal/hashx"
)

func prehashed(n int, seed uint64) []uint64 {
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = hashx.HashUint64(uint64(i), seed)
	}
	return hs
}

func TestAtomicCountMinAddHashBatchConcurrent(t *testing.T) {
	const goroutines = 8
	hs := prehashed(4096, 3)
	for _, mode := range []frequency.Mode{frequency.Derived, frequency.KWise, frequency.Fused} {
		l := frequency.Layout{Width: 1024, Depth: 4, Mode: mode, Seed: 3}
		acm := NewAtomicCountMinLayout(l)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(chunk []uint64) {
				defer wg.Done()
				acm.AddHashBatch(chunk)
			}(hs[g*len(hs)/goroutines : (g+1)*len(hs)/goroutines])
		}
		wg.Wait()

		ref := frequency.NewCountMinLayout(l)
		for _, h := range hs {
			ref.AddHash(h, 1)
		}
		a, err := cmSnapshot(t, acm).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: concurrent AddHashBatch state differs from single-threaded CountMin fed the same hashes one by one", mode)
		}
	}
}

// Two and eight writers pushing weighted blocks into one sketch: the
// cells and the once-per-chunk total must come out as the serial sum,
// in the bytes the sketch serves.
func TestAtomicCountMinWeightedBatchConcurrent(t *testing.T) {
	hs := prehashed(8192, 3)
	ws := make([]uint64, len(hs))
	var total uint64
	for i := range ws {
		ws[i] = hashx.HashUint64(uint64(i), 11) >> (20 + i%40)
		total += ws[i]
	}
	for _, mode := range []frequency.Mode{frequency.Derived, frequency.KWise, frequency.Fused} {
		l := frequency.Layout{Width: 1024, Depth: 4, Mode: mode, Seed: 3}
		ref := frequency.NewCountMinLayout(l)
		for i, h := range hs {
			ref.AddHash(h, ws[i])
		}
		want, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for _, goroutines := range []int{2, 8} {
			acm := NewAtomicCountMinLayout(l)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				lo, hi := g*len(hs)/goroutines, (g+1)*len(hs)/goroutines
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ; lo < hi; lo += 1000 { // batches that end mid-chunk
						acm.AddWeightedHashBatch(hs[lo:min(lo+1000, hi)], ws[lo:min(lo+1000, hi)])
					}
				}()
			}
			wg.Wait()
			if got := acm.N(); got != total {
				t.Errorf("%v, %d writers: N() = %d, want %d", mode, goroutines, got, total)
			}
			got, err := acm.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v, %d writers: envelope differs from the serial sum", mode, goroutines)
			}
		}
	}
}

func TestShardedHLLAddHashBatchConcurrent(t *testing.T) {
	const goroutines = 8
	hs := prehashed(8192, 5)
	s := NewShardedHLL(4, 12, 5)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(chunk []uint64) {
			defer wg.Done()
			s.Handle().AddHashBatch(chunk)
		}(hs[g*len(hs)/goroutines : (g+1)*len(hs)/goroutines])
	}
	wg.Wait()

	ref := cardinality.NewHLL(12, 5)
	ref.AddHashBatch(hs)
	a, err := s.mergedView().Clone().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("sharded AddHashBatch merged state differs from a single HLL fed the same hashes")
	}
	if got, want := s.mergedView().Estimate(), ref.Estimate(); got != want {
		t.Fatalf("Estimate() = %v, want %v", got, want)
	}
}

// The serving holders' batch kernels chunk through fixed-size stack
// arrays: a 1024-hash block, the size a served batch parses into,
// allocates nothing on its way in.
func TestBatchKernelsZeroAlloc(t *testing.T) {
	hs := prehashed(1024, 1)
	ws := make([]uint64, len(hs))
	for i := range ws {
		ws[i] = uint64(1 + i%9)
	}
	cm := NewAtomicCountMin(2048, 4, 1)
	handle := NewShardedHLL(4, 14, 1).Handle()
	for name, fn := range map[string]func(){
		"AtomicCountMin.AddHashBatch":         func() { cm.AddHashBatch(hs) },
		"AtomicCountMin.AddWeightedHashBatch": func() { cm.AddWeightedHashBatch(hs, ws) },
		"HLLHandle.AddHashBatch":              func() { handle.AddHashBatch(hs) },
	} {
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s: %v allocs per 1024-hash batch, want 0", name, n)
		}
	}
}
