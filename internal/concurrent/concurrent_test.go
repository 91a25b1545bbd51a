package concurrent

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/hashx"
)

func TestShardedHLLMatchesSequential(t *testing.T) {
	const n = 200000
	const workers = 8
	s := NewShardedHLL(workers, 12, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Handle()
			for i := w; i < n; i += workers {
				h.AddUint64(uint64(i))
			}
		}(w)
	}
	wg.Wait()
	// The sharded estimate must equal a single-threaded sketch's
	// estimate exactly (merge is lossless).
	single := cardinality.NewHLL(12, 1)
	for i := 0; i < n; i++ {
		single.AddUint64(uint64(i))
	}
	if got, want := s.mergedView().Estimate(), single.Estimate(); got != want {
		t.Errorf("sharded estimate %.1f != sequential %.1f", got, want)
	}
}

func TestShardedHLLConcurrentReads(t *testing.T) {
	s := NewShardedHLL(4, 10, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Handle()
			for i := 0; i < 50000; i++ {
				h.AddUint64(uint64(w)<<32 | uint64(i))
			}
		}(w)
	}
	// Reader racing the writers; must never panic and estimates must
	// stay sensible throughout.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				if est := s.mergedView().Estimate(); est < 0 {
					t.Error("negative estimate")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if err := core.RelErr(s.mergedView().Estimate(), 200000); err > 0.1 {
		t.Errorf("final estimate rel err %.3f", err)
	}
}

func TestAtomicCountMinConcurrentNeverUndercounts(t *testing.T) {
	const workers = 8
	const perWorker = 20000
	c := NewAtomicCountMin(1024, 4, 3)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.AddUint64(uint64(i%100), 1)
			}
		}(w)
	}
	wg.Wait()
	if c.N() != workers*perWorker {
		t.Errorf("N = %d, want %d", c.N(), workers*perWorker)
	}
	for item := uint64(0); item < 100; item++ {
		want := uint64(workers * perWorker / 100)
		if got := cmEstimateUint64(c, item); got < want {
			t.Errorf("item %d: estimate %d < true %d", item, got, want)
		}
	}
}

func TestAtomicCountMinByteItems(t *testing.T) {
	c := NewAtomicCountMin(256, 4, 4)
	cmAdd(c, []byte("x"), 7)
	cmAdd(c, []byte("x"), 3)
	if c.N() != 10 {
		t.Errorf("N = %d", c.N())
	}
	if got := frequency.MinCells(c.AppendCells(nil, []byte("x"))); got < 10 {
		t.Errorf("byte-item estimate %d, want >= 10", got)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"sharded": func() { NewShardedHLL(0, 10, 1) },
		"atomic":  func() { NewAtomicCountMin(0, 4, 1) },
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

// Throughput of the atomic and sharded writers under RunParallel.

func BenchmarkAtomicCountMinParallel(b *testing.B) {
	c := NewAtomicCountMin(4096, 4, 1)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			c.AddUint64(i, 1)
			i++
		}
	})
}

func BenchmarkShardedHLLParallel(b *testing.B) {
	s := NewShardedHLL(runtime.GOMAXPROCS(0), 14, 1)
	b.RunParallel(func(pb *testing.PB) {
		h := s.Handle()
		i := uint64(0)
		for pb.Next() {
			h.AddUint64(i)
			i++
		}
	})
}

func TestShardedHLLEpochCache(t *testing.T) {
	s := NewShardedHLL(4, 12, 1)
	h := s.Handle()
	for i := 0; i < 10000; i++ {
		h.AddUint64(uint64(i))
	}
	first := s.mergedView().Estimate()
	// A second read between writes must come from the cache and agree.
	if again := s.mergedView().Estimate(); again != first {
		t.Errorf("cached estimate %.1f != %.1f", again, first)
	}
	if s.epoch() != 10000 {
		t.Errorf("epoch = %d, want 10000", s.epoch())
	}
	// A write must invalidate the cached view.
	for i := 10000; i < 30000; i++ {
		h.AddUint64(uint64(i))
	}
	if got := s.mergedView().Estimate(); got == first {
		t.Errorf("estimate unchanged at %.1f after 20k new items", got)
	}
	if err := core.RelErr(s.mergedView().Estimate(), 30000); err > 0.1 {
		t.Errorf("estimate rel err %.3f", err)
	}
}

func TestShardedHLLMergeAndSnapshot(t *testing.T) {
	s := NewShardedHLL(4, 12, 1)
	h := s.Handle()
	for i := 0; i < 5000; i++ {
		h.AddUint64(uint64(i))
	}
	peer := cardinality.NewHLL(12, 1)
	for i := 5000; i < 10000; i++ {
		peer.AddUint64(uint64(i))
	}
	if err := s.Merge(peer); err != nil {
		t.Fatalf("merge: %v", err)
	}
	// Merge must invalidate the cache and union the peer.
	if err := core.RelErr(s.mergedView().Estimate(), 10000); err > 0.1 {
		t.Errorf("post-merge rel err %.3f", err)
	}
	// Incompatible peers must be rejected.
	bad := cardinality.NewHLL(10, 99)
	if err := s.Merge(bad); err == nil {
		t.Error("merge of incompatible HLL succeeded")
	}
	// Snapshot must be a private copy equal to the merged view.
	snap := s.mergedView().Clone()
	if snap.Estimate() != s.mergedView().Estimate() {
		t.Errorf("snapshot estimate %.1f != %.1f", snap.Estimate(), s.mergedView().Estimate())
	}
	for i := 0; i < 20000; i++ {
		snap.AddUint64(uint64(1<<40 + i))
	}
	if snap.Estimate() <= s.mergedView().Estimate() {
		t.Error("mutating the snapshot did not diverge from the source")
	}
	// Round-trip through MarshalBinary must be absorbable by a plain HLL.
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back cardinality.HLL
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Estimate() != s.mergedView().Estimate() {
		t.Errorf("round-trip estimate %.1f != %.1f", back.Estimate(), s.mergedView().Estimate())
	}
}

func TestAtomicCountMinMergeSnapshot(t *testing.T) {
	c := NewAtomicCountMin(1024, 4, 3)
	for i := 0; i < 1000; i++ {
		c.AddUint64(uint64(i%10), 1)
	}
	peer := frequency.NewCountMin(1024, 4, 3)
	for i := 0; i < 500; i++ {
		peer.AddUint64(uint64(i%10), 1)
	}
	if err := c.Merge(peer); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if c.N() != 1500 {
		t.Errorf("N = %d, want 1500", c.N())
	}
	for item := uint64(0); item < 10; item++ {
		if got := cmEstimateUint64(c, item); got < 150 {
			t.Errorf("item %d: estimate %d < 150", item, got)
		}
	}
	// Snapshot must agree with the atomic reads and round-trip.
	snap := cmSnapshot(t, c)
	for item := uint64(0); item < 10; item++ {
		if snap.EstimateUint64(item) != cmEstimateUint64(c, item) {
			t.Errorf("item %d: snapshot %d != live %d",
				item, snap.EstimateUint64(item), cmEstimateUint64(c, item))
		}
	}
	// Mismatched shapes and conservative peers are rejected.
	if err := c.Merge(frequency.NewCountMin(512, 4, 3)); err == nil {
		t.Error("merge of mismatched width succeeded")
	}
	cons := frequency.NewCountMin(1024, 4, 3)
	cons.SetConservative(true)
	if err := c.Merge(cons); err == nil {
		t.Error("merge of conservative sketch succeeded")
	}
}

// BenchmarkShardedHLLEstimate demonstrates what the epoch cache buys:
// the uncached path re-merges every shard on every read (the seed
// repo's behaviour), the cached path pays O(shards) between writes.
func BenchmarkShardedHLLEstimate(b *testing.B) {
	for _, mode := range []string{"uncached", "cached"} {
		b.Run(mode, func(b *testing.B) {
			s := NewShardedHLL(runtime.GOMAXPROCS(0), 14, 1)
			h := s.Handle()
			for i := 0; i < 100000; i++ {
				h.AddUint64(uint64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "uncached" {
					merged := s.mergeShards()
					_ = merged.Estimate()
				} else {
					_ = s.mergedView().Estimate()
				}
			}
		})
	}
}

// The holders are read the way the registry reads them, through their
// cells and envelopes; these give the tests the plain kernel's reads.

func cmAdd(c *AtomicCountMin, item []byte, weight uint64) {
	c.AddHash(hashx.XXHash64(item, c.Seed()), weight)
}

func cmEstimateUint64(c *AtomicCountMin, item uint64) uint64 {
	return frequency.MinCells(c.appendCells(nil, hashx.HashUint64(item, c.Seed())))
}

func cmSnapshot(t testing.TB, c *AtomicCountMin) *frequency.CountMin {
	t.Helper()
	env, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cm := new(frequency.CountMin)
	if err := cm.UnmarshalBinary(env); err != nil {
		t.Fatal(err)
	}
	return cm
}

func bloomAdd(f *AtomicBlockedBloom, item []byte) {
	f.AddHash(hashx.Murmur3_128(item, f.Seed()))
}

func bloomContains(f *AtomicBlockedBloom, item []byte) bool {
	return f.ContainsHash(hashx.Murmur3_128(item, f.Seed()))
}
