package mergex

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cardinality"
)

type counter struct {
	sum    uint64
	merges int
}

func (c *counter) fold(src *counter) error {
	c.sum += src.sum
	c.merges++
	return nil
}

func TestTreeMatchesSerialFold(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33, 100, 257} {
		items := make([]*counter, n)
		var want uint64
		for i := range items {
			items[i] = &counter{sum: uint64(i*i + 1)}
			want += uint64(i*i + 1)
		}
		got, err := Tree(items, (*counter).fold)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.sum != want {
			t.Errorf("n=%d: tree sum %d, serial sum %d", n, got.sum, want)
		}
		if got != items[0] {
			t.Errorf("n=%d: result is not items[0]", n)
		}
		// A reduction performs exactly n-1 pairwise merges in total.
		total := 0
		for _, it := range items {
			total += it.merges
		}
		if total != n-1 {
			t.Errorf("n=%d: %d merges performed, want %d", n, total, n-1)
		}
	}
}

// TestTreeParallelSchedule pins GOMAXPROCS above 1 so the goroutine
// fan-out runs (and the race detector watches it) even on a single-core
// host, where Tree would otherwise run each round's merges inline.
func TestTreeParallelSchedule(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, n := range []int{2, 3, 17, 64, 129} {
		items := make([]*counter, n)
		var want uint64
		for i := range items {
			items[i] = &counter{sum: uint64(i + 1)}
			want += uint64(i + 1)
		}
		got, err := Tree(items, (*counter).fold)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.sum != want {
			t.Errorf("n=%d: parallel tree sum %d, want %d", n, got.sum, want)
		}
	}
}

func TestTreeEmpty(t *testing.T) {
	if _, err := Tree(nil, (*counter).fold); !errors.Is(err, ErrNoItems) {
		t.Fatalf("empty merge returned %v, want ErrNoItems", err)
	}
}

func TestTreeErrorPropagates(t *testing.T) {
	old := runtime.GOMAXPROCS(4) // exercise the goroutine error path too
	defer runtime.GOMAXPROCS(old)
	boom := errors.New("boom")
	items := make([]*counter, 16)
	for i := range items {
		items[i] = &counter{sum: 1}
	}
	var calls atomic.Int64
	_, err := Tree(items, func(dst, src *counter) error {
		if calls.Add(1) == 3 {
			return boom
		}
		return dst.fold(src)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the injected error", err)
	}
}

// TestTreeHLLEquivalence checks the engine against a real sketch merge
// under -race (the CI race job runs this package): the tree-merged
// union must estimate exactly like a single sketch that saw every
// shard's stream.
func TestTreeHLLEquivalence(t *testing.T) {
	const shards, perShard = 23, 2000
	reference := cardinality.NewHLL(12, 42)
	items := make([]*cardinality.HLL, shards)
	for s := range items {
		items[s] = cardinality.NewHLL(12, 42)
		for i := 0; i < perShard; i++ {
			v := uint64(s*perShard + i)
			items[s].AddUint64(v)
			reference.AddUint64(v)
		}
	}
	merged, err := Tree(items, (*cardinality.HLL).Merge)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Estimate(), reference.Estimate(); got != want {
		t.Errorf("tree-merged estimate %f, single-sketch estimate %f", got, want)
	}
}

func TestTreeShapeMismatchSurfaces(t *testing.T) {
	items := []*cardinality.HLL{
		cardinality.NewHLL(12, 1),
		cardinality.NewHLL(12, 1),
		cardinality.NewHLL(13, 1), // incompatible precision
		cardinality.NewHLL(12, 1),
	}
	if _, err := Tree(items, (*cardinality.HLL).Merge); err == nil {
		t.Fatal("merging mismatched HLL shapes succeeded")
	}
}

func BenchmarkTreeMerge64HLL(b *testing.B) {
	build := func() []*cardinality.HLL {
		items := make([]*cardinality.HLL, 64)
		for s := range items {
			items[s] = cardinality.NewHLL(14, 7)
			for i := 0; i < 1000; i++ {
				items[s].AddUint64(uint64(s*1000 + i))
			}
		}
		return items
	}
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			items := build()
			b.StartTimer()
			if _, err := Tree(items, (*cardinality.HLL).Merge); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			items := build()
			b.StartTimer()
			dst := items[0]
			for _, src := range items[1:] {
				if err := dst.Merge(src); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
