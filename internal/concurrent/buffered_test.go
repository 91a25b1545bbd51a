package concurrent

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/frequency"
)

// Byte-identity property: buffered multi-writer ingest, once flushed
// and synced, serializes to exactly the bytes of serial ingest of the
// same multiset. This is the strongest form of the "same estimate
// distribution" requirement — identical bytes ⇒ identical estimates
// for every query.

func TestBufferedCountMinByteIdentity(t *testing.T) {
	for _, fused := range []bool{false, true} {
		t.Run(fmt.Sprintf("fused=%v", fused), func(t *testing.T) {
			const width, depth, seed = 512, 4, 42
			const items, writers = 20000, 4

			l := frequency.Layout{Width: width, Depth: depth, Seed: seed}
			if fused {
				l.Mode = frequency.Fused
			}
			serial := frequency.NewCountMinLayout(l)
			buf := BufferCountMin(NewAtomicCountMinLayout(l), 64)
			defer buf.Close()

			rng := rand.New(rand.NewSource(7))
			type upd struct{ item, w uint64 }
			updates := make([]upd, items)
			for i := range updates {
				updates[i] = upd{uint64(rng.Intn(1000)), uint64(rng.Intn(5) + 1)}
			}
			for _, u := range updates {
				serial.AddUint64(u.item, u.w)
			}

			var wg sync.WaitGroup
			per := items / writers
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(part []upd) {
					defer wg.Done()
					wr := buf.Writer()
					for _, u := range part {
						wr.AddUint64(u.item, u.w)
					}
					wr.Flush()
				}(updates[w*per : (w+1)*per])
			}
			wg.Wait()
			buf.Sync()

			want, err := serial.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got, err := buf.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("buffered bytes diverge from serial ingest (%d vs %d bytes)", len(got), len(want))
			}
			if n := buf.N(); n != serial.N() {
				t.Fatalf("N = %d, want %d", n, serial.N())
			}
		})
	}
}

func TestBufferedHLLByteIdentity(t *testing.T) {
	const p, seed = 12, 42
	const items, writers = 20000, 4

	serial := cardinality.NewHLL(p, seed)
	buf := BufferHLL(NewShardedHLL(1, p, seed), 64)
	defer buf.Close()

	for i := 0; i < items; i++ {
		serial.AddUint64(uint64(i))
	}
	var wg sync.WaitGroup
	per := items / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			wr := buf.Writer()
			for i := lo; i < lo+per; i++ {
				wr.AddUint64(uint64(i))
			}
			wr.Flush()
		}(w * per)
	}
	wg.Wait()

	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := buf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("buffered bytes diverge from serial ingest (%d vs %d bytes)", len(got), len(want))
	}
	if est, want := buf.Estimate(), serial.Estimate(); est != want {
		t.Fatalf("published estimate %.1f, want %.1f", est, want)
	}
}

func TestBufferedBlockedBloomByteIdentity(t *testing.T) {
	const m, k, seed = 1 << 15, 7, 42
	const items, writers = 20000, 4

	serial := bloom.NewBlocked(m, k, seed)
	buf := BufferBlockedBloom(NewAtomicBlockedBloom(m, k, seed), 64)
	defer buf.Close()

	keys := make([][]byte, items)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		serial.Add(keys[i])
	}
	var wg sync.WaitGroup
	per := items / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part [][]byte) {
			defer wg.Done()
			wr := buf.Writer()
			for _, key := range part {
				wr.Add(key)
			}
			wr.Flush()
		}(keys[w*per : (w+1)*per])
	}
	wg.Wait()

	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := buf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("buffered bytes diverge from serial ingest (%d vs %d bytes)", len(got), len(want))
	}
	for _, key := range keys[:100] {
		if !buf.Contains(key) {
			t.Fatalf("false negative for %q after sync", key)
		}
	}
}

// Staleness bound: at any instant mid-ingest, a reader misses at most
// writers × WriterBuffer items — everything older has been handed off
// and the propagator's visible N reflects it after a sync barrier.
func TestBufferedCountMinStalenessBound(t *testing.T) {
	const width, depth, seed = 256, 4, 1
	const writerBuf = 64
	const writers = 4
	const perWriter = 10000

	c := BufferCountMin(NewAtomicCountMin(width, depth, seed), writerBuf)
	defer c.Close()

	var wg sync.WaitGroup
	handles := make([]*BufferedCountMinWriter, writers)
	for i := range handles {
		handles[i] = c.Writer()
	}
	if got, want := c.StalenessBound(), writers*writerBuf; got != want {
		t.Fatalf("StalenessBound = %d, want %d", got, want)
	}
	start := make(chan struct{})
	for _, wr := range handles {
		wg.Add(1)
		go func(wr *BufferedCountMinWriter) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				wr.AddUint64(uint64(i), 1)
			}
		}(wr)
	}
	close(start)
	wg.Wait()

	// No flush yet: each writer may hold up to its full buffer
	// (two halves) locally, nothing more. Propagation is async, so
	// run a barrier before checking the visible floor.
	c.prop.do(func() {})
	total := uint64(writers * perWriter)
	bound := uint64(c.StalenessBound())
	if n := c.N(); n < total-bound || n > total {
		t.Fatalf("N = %d outside staleness window [%d, %d]", n, total-bound, total)
	}

	// After flush + sync the count is exact.
	for _, wr := range handles {
		wr.Flush()
	}
	c.Sync()
	if n := c.N(); n != total {
		t.Fatalf("N = %d after flush+sync, want %d", n, total)
	}
}

// Concurrent readers during multi-writer ingest: estimates are
// monotone in propagated weight and never exceed the true total
// (Count-Min never undercounts propagated state, never counts
// unbuffered state).
func TestBufferedCountMinConcurrentReaders(t *testing.T) {
	c := NewBufferedCountMin(512, 4, 9)
	defer c.Close()

	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := c.N()
				if n < last {
					t.Error("visible N went backwards")
					return
				}
				last = n
				c.EstimateUint64(12345)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := c.Writer()
			for i := 0; i < perWriter; i++ {
				wr.AddUint64(uint64(i%100), 1)
			}
			wr.Flush()
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	c.Sync()
	if n := c.N(); n != writers*perWriter {
		t.Fatalf("N = %d, want %d", n, writers*perWriter)
	}
}

// Merging a plain sketch into a buffered one concurrently with
// buffered ingest must land exactly once and completely.
func TestBufferedMergeDuringIngest(t *testing.T) {
	c := NewBufferedCountMin(512, 4, 3)
	defer c.Close()

	peer := frequency.NewCountMin(512, 4, 3)
	for i := 0; i < 1000; i++ {
		peer.AddUint64(uint64(i), 2)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr := c.Writer()
		for i := 0; i < 5000; i++ {
			wr.AddUint64(uint64(i), 1)
		}
		wr.Flush()
	}()
	if err := c.Merge(peer); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	c.Sync()
	if n, want := c.N(), uint64(5000+2000); n != want {
		t.Fatalf("N = %d, want %d", n, want)
	}

	h := NewBufferedHLL(12, 3)
	defer h.Close()
	hpeer := cardinality.NewHLL(12, 3)
	for i := 0; i < 1000; i++ {
		hpeer.AddUint64(uint64(i))
	}
	if err := h.Merge(hpeer); err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()
	if snap.Estimate() != hpeer.Estimate() {
		t.Fatalf("merged HLL estimate %.1f, want %.1f", snap.Estimate(), hpeer.Estimate())
	}

	f := NewBufferedBlockedBloom(1<<12, 7, 3)
	defer f.Close()
	fpeer := bloom.NewBlocked(1<<12, 7, 3)
	fpeer.Add([]byte("merged-item"))
	if err := f.Merge(fpeer); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	if !f.Contains([]byte("merged-item")) {
		t.Fatal("merged item not visible")
	}
}

func TestBufferedMergeQuiescentPublishes(t *testing.T) {
	// A merge into a sketch with no writer traffic is visible to the
	// next read: Merge and Estimate are the holder's own, so no flush
	// has to follow the merge.
	h := NewBufferedHLL(12, 9)
	defer h.Close()
	peer := cardinality.NewHLL(12, 9)
	for i := 0; i < 50000; i++ {
		peer.AddUint64(uint64(i))
	}
	if err := h.Merge(peer); err != nil {
		t.Fatal(err)
	}
	if got, want := h.Estimate(), peer.Estimate(); got != want {
		t.Fatalf("published estimate after quiescent merge = %.1f, want %.1f", got, want)
	}
}

// An estimate is exact for everything propagated: once Propagated
// counts an item, Estimate sees it, with no Sync in between — the read
// is the holder's own, not a copy refreshed on the propagator's clock.
func TestBufferedHLLEstimateNeedsNoSync(t *testing.T) {
	const p, seed, items = 12, 21, 5000
	serial := cardinality.NewHLL(p, seed)
	h := NewBufferedHLL(p, seed)
	defer h.Close()
	w := h.Writer()
	for i := 0; i < items; i++ {
		serial.AddUint64(uint64(i))
		w.AddUint64(uint64(i))
	}
	w.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for h.Propagated() < items {
		if time.Now().After(deadline) {
			t.Fatalf("propagated %d of %d items after 10s", h.Propagated(), items)
		}
		runtime.Gosched()
	}
	if got, want := h.Estimate(), serial.Estimate(); got != want {
		t.Fatalf("estimate %.1f after propagation, serial HLL %.1f", got, want)
	}
}

// Close while writers are mid-stream must not deadlock or panic;
// post-close handoffs drop silently.
func TestBufferedCloseWithLiveWriters(t *testing.T) {
	c := NewBufferedCountMin(256, 4, 5)
	var wg sync.WaitGroup
	started := make(chan struct{}, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := c.Writer()
			started <- struct{}{}
			for i := 0; i < 100000; i++ {
				wr.AddUint64(uint64(i), 1)
			}
			wr.Flush()
		}()
	}
	for i := 0; i < 8; i++ {
		<-started
	}
	c.Close()
	wg.Wait() // must terminate: every channel wait has a quit escape

	// Idempotent close; reads still answer from the final global.
	c.Close()
	_ = c.N()
	_ = c.EstimateUint64(1)

	h := NewBufferedHLL(12, 5)
	hw := h.Writer()
	hw.AddUint64(1)
	h.Close()
	_ = h.Estimate()
	if h.Snapshot() == nil { // post-close snapshot uses the done-channel path
		t.Fatal("nil snapshot after close")
	}

	f := NewBufferedBlockedBloom(1<<12, 7, 5)
	fw := f.Writer()
	fw.AddHash(1, 2)
	f.Close()
	_ = f.Contains([]byte("x"))
}

// Pooled writers recycle across checkouts and keep the registered
// writer count bounded by the pool size.
func TestBufferedPooledWriters(t *testing.T) {
	c := NewBufferedCountMin(256, 4, 11)
	defer c.Close()

	size := runtime.GOMAXPROCS(0)
	seen := make(map[*bufWriter]bool)
	for i := 0; i < 3*size; i++ {
		w := c.checkout()
		seen[w] = true
		(*BufferedCountMinWriter)(w).AddUint64(uint64(i), 1)
		c.release(w)
	}
	if len(seen) > size {
		t.Fatalf("%d distinct pooled writers, want ≤ %d", len(seen), size)
	}
	if bw := c.BufferedWriters(); bw > size {
		t.Fatalf("BufferedWriters = %d, want ≤ %d", bw, size)
	}
	c.Sync()
	if n := c.N(); n != uint64(3*size) {
		t.Fatalf("N = %d, want %d", n, 3*size)
	}
}

func TestBufferedSnapshotRoundTrip(t *testing.T) {
	c := NewBufferedCountMin(256, 4, 13)
	defer c.Close()
	w := c.Writer()
	for i := 0; i < 1000; i++ {
		w.AddUint64(uint64(i%50), 1)
	}
	w.Flush()
	snap := c.Snapshot()
	if snap.N() != 1000 {
		t.Fatalf("snapshot N = %d, want 1000", snap.N())
	}
	if got, want := snap.EstimateUint64(7), c.EstimateUint64(7); got != want {
		t.Fatalf("snapshot estimate %d, want %d", got, want)
	}

	h := NewBufferedHLL(12, 13)
	defer h.Close()
	hw := h.Writer()
	for i := 0; i < 1000; i++ {
		hw.AddUint64(uint64(i))
	}
	hw.Flush()
	hsnap := h.Snapshot()
	if hsnap.Estimate() != h.Estimate() {
		t.Fatalf("snapshot estimate %.1f, live %.1f", hsnap.Estimate(), h.Estimate())
	}

	f := NewBufferedBlockedBloom(1<<12, 7, 13)
	defer f.Close()
	fw := f.Writer()
	fw.Add([]byte("hello"))
	fw.Flush()
	fsnap := f.Snapshot()
	if !fsnap.Contains([]byte("hello")) {
		t.Fatal("snapshot lost an item")
	}
}

// The writer hot path must not allocate: put() appends into a
// preallocated buffer and handoff recycles via channels. (The guards
// in zeroalloc_test.go cover the same path at the repo level; this
// one keeps the property local to the package.)
func TestBufferedWriterHotPathAllocs(t *testing.T) {
	c := NewBufferedCountMin(256, 4, 17)
	defer c.Close()
	w := c.Writer()
	var i uint64
	allocs := testing.AllocsPerRun(10000, func() {
		w.AddUint64(i, 1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("writer AddUint64: %.2f allocs/op, want 0", allocs)
	}

	h := NewBufferedHLL(12, 17)
	defer h.Close()
	hw := h.Writer()
	allocs = testing.AllocsPerRun(10000, func() {
		hw.AddUint64(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("HLL writer AddUint64: %.2f allocs/op, want 0", allocs)
	}

	f := NewBufferedBlockedBloom(1<<12, 7, 17)
	defer f.Close()
	fw := f.Writer()
	allocs = testing.AllocsPerRun(10000, func() {
		fw.AddHash(i, i*2654435761)
		i++
	})
	if allocs != 0 {
		t.Fatalf("bloom writer AddHash: %.2f allocs/op, want 0", allocs)
	}
}
