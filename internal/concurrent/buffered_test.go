package concurrent

import (
	"bytes"
	"encoding"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/frequency"
	"repro/internal/hashx"
)

// overKernel is the shape sketchd serves in buffered mode: a plain
// sketch behind one mutex, and a Buffer in front whose propagator
// applies each flush half with the sketch's batch kernel under it.
type overKernel[S any] struct {
	mu sync.Mutex
	s  S
	*Buffer
}

func bufferOver[S any](s S, writerBuf int, kernel func(S, []uint64, []uint64)) *overKernel[S] {
	o := &overKernel[S]{s: s}
	o.Buffer = NewBuffer(writerBuf, func(a, b []uint64) {
		o.mu.Lock()
		defer o.mu.Unlock()
		kernel(o.s, a, b)
	})
	return o
}

// with runs f on the sketch under the mutex, as a served read or merge
// does.
func (o *overKernel[S]) with(f func(S)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f(o.s)
}

// marshal syncs, then serializes under the mutex, as a served snapshot
// does.
func (o *overKernel[S]) marshal(t *testing.T) []byte {
	t.Helper()
	o.Sync()
	var data []byte
	var err error
	o.with(func(s S) { data, err = any(s).(encoding.BinaryMarshaler).MarshalBinary() })
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The three kernels sketchd buffers.
var (
	cmKernel    = (*frequency.CountMin).AddWeightedHashBatch
	bloomKernel = (*bloom.BlockedFilter).AddHashBatch
)

func hllKernel(h *cardinality.HLL, h1s, _ []uint64) { h.AddHashBatch(h1s) }

func newBufferedCountMin(width, depth int, seed uint64) *overKernel[*frequency.CountMin] {
	return bufferOver(frequency.NewCountMin(width, depth, seed), DefaultWriterBuffer, cmKernel)
}

func newBufferedHLL(p uint8, seed uint64) *overKernel[*cardinality.HLL] {
	return bufferOver(cardinality.NewHLL(p, seed), DefaultWriterBuffer, hllKernel)
}

func newBufferedBlockedBloom(m uint64, k int, seed uint64) *overKernel[*bloom.BlockedFilter] {
	return bufferOver(bloom.NewBlocked(m, k, seed), DefaultWriterBuffer, bloomKernel)
}

func (o *overKernel[S]) n() (n uint64) {
	o.with(func(s S) { n = any(s).(interface{ N() uint64 }).N() })
	return n
}

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
			buf := bufferOver(frequency.NewCountMinLayout(l), 64, cmKernel)
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
						wr.Put2(hashx.HashUint64(u.item, seed), u.w)
					}
					wr.Flush()
				}(updates[w*per : (w+1)*per])
			}
			wg.Wait()

			want, err := serial.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.marshal(t); !bytes.Equal(want, got) {
				t.Fatalf("buffered bytes diverge from serial ingest (%d vs %d bytes)", len(got), len(want))
			}
			if n := buf.n(); n != serial.N() {
				t.Fatalf("N = %d, want %d", n, serial.N())
			}
		})
	}
}

func TestBufferedHLLByteIdentity(t *testing.T) {
	const p, seed = 12, 42
	const items, writers = 20000, 4

	serial := cardinality.NewHLL(p, seed)
	buf := bufferOver(cardinality.NewHLL(p, seed), 64, hllKernel)
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
				wr.Put(hashx.HashUint64(uint64(i), seed))
			}
			wr.Flush()
		}(w * per)
	}
	wg.Wait()

	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.marshal(t); !bytes.Equal(want, got) {
		t.Fatalf("buffered bytes diverge from serial ingest (%d vs %d bytes)", len(got), len(want))
	}
	var est float64
	buf.with(func(h *cardinality.HLL) { est = h.Estimate() })
	if want := serial.Estimate(); est != want {
		t.Fatalf("estimate %.1f, want %.1f", est, want)
	}
}

func TestBufferedBlockedBloomByteIdentity(t *testing.T) {
	const m, k, seed = 1 << 15, 7, 42
	const items, writers = 20000, 4

	serial := bloom.NewBlocked(m, k, seed)
	buf := bufferOver(bloom.NewBlocked(m, k, seed), 64, bloomKernel)
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
				wr.Put2(hashx.Murmur3_128(key, seed))
			}
			wr.Flush()
		}(keys[w*per : (w+1)*per])
	}
	wg.Wait()

	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.marshal(t); !bytes.Equal(want, got) {
		t.Fatalf("buffered bytes diverge from serial ingest (%d vs %d bytes)", len(got), len(want))
	}
	buf.with(func(f *bloom.BlockedFilter) {
		for _, key := range keys[:100] {
			if !f.Contains(key) {
				t.Fatalf("false negative for %q after sync", key)
			}
		}
	})
}

// Staleness bound: at any instant mid-ingest, a reader misses at most
// writers × WriterBuffer items — everything older has been handed off
// and the propagator's visible N reflects it after a sync barrier.
func TestBufferedCountMinStalenessBound(t *testing.T) {
	const width, depth, seed = 256, 4, 1
	const writerBuf = 64
	const writers = 4
	const perWriter = 10000

	c := bufferOver(frequency.NewCountMin(width, depth, seed), writerBuf, cmKernel)
	defer c.Close()

	var wg sync.WaitGroup
	handles := make([]*Writer, writers)
	for i := range handles {
		handles[i] = c.Writer()
	}
	if got, want := c.StalenessBound(), writers*writerBuf; got != want {
		t.Fatalf("StalenessBound = %d, want %d", got, want)
	}
	start := make(chan struct{})
	for _, wr := range handles {
		wg.Add(1)
		go func(wr *Writer) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				wr.Put2(uint64(i), 1)
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
	if n := c.n(); n < total-bound || n > total {
		t.Fatalf("N = %d outside staleness window [%d, %d]", n, total-bound, total)
	}

	// After flush + sync the count is exact.
	for _, wr := range handles {
		wr.Flush()
	}
	c.Sync()
	if n := c.n(); n != total {
		t.Fatalf("N = %d after flush+sync, want %d", n, total)
	}
}

// Concurrent readers during multi-writer ingest: estimates are
// monotone in propagated weight and never exceed the true total
// (Count-Min never undercounts propagated state, never counts
// unbuffered state). Readers take the mutex each flush half is applied
// under.
func TestBufferedCountMinConcurrentReaders(t *testing.T) {
	c := newBufferedCountMin(512, 4, 9)
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
				n := c.n()
				if n < last {
					t.Error("visible N went backwards")
					return
				}
				last = n
				c.with(func(c *frequency.CountMin) { c.EstimateUint64(12345) })
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := c.Writer()
			for i := 0; i < perWriter; i++ {
				wr.Put2(hashx.HashUint64(uint64(i%100), 9), 1)
			}
			wr.Flush()
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	c.Sync()
	if n := c.n(); n != writers*perWriter {
		t.Fatalf("N = %d, want %d", n, writers*perWriter)
	}
}

// Merging a plain sketch into a buffered one concurrently with
// buffered ingest must land exactly once and completely.
func TestBufferedMergeDuringIngest(t *testing.T) {
	c := newBufferedCountMin(512, 4, 3)
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
			wr.Put2(hashx.HashUint64(uint64(i), 3), 1)
		}
		wr.Flush()
	}()
	var err error
	c.with(func(c *frequency.CountMin) { err = c.Merge(peer) })
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	c.Sync()
	if n, want := c.n(), uint64(5000+2000); n != want {
		t.Fatalf("N = %d, want %d", n, want)
	}

	h := newBufferedHLL(12, 3)
	defer h.Close()
	hpeer := cardinality.NewHLL(12, 3)
	for i := 0; i < 1000; i++ {
		hpeer.AddUint64(uint64(i))
	}
	h.with(func(h *cardinality.HLL) { err = h.Merge(hpeer) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h.marshal(t), mustMarshal(t, hpeer)) {
		t.Fatal("merged HLL is not its peer")
	}

	f := newBufferedBlockedBloom(1<<12, 7, 3)
	defer f.Close()
	fpeer := bloom.NewBlocked(1<<12, 7, 3)
	fpeer.Add([]byte("merged-item"))
	f.with(func(f *bloom.BlockedFilter) { err = f.Merge(fpeer) })
	if err != nil {
		t.Fatal(err)
	}
	f.with(func(f *bloom.BlockedFilter) {
		if !f.Contains([]byte("merged-item")) {
			t.Fatal("merged item not visible")
		}
	})
}

func mustMarshal(t *testing.T, m encoding.BinaryMarshaler) []byte {
	t.Helper()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBufferedMergeQuiescentPublishes(t *testing.T) {
	// A merge into a sketch with no writer traffic is visible to the
	// next read: Merge and Estimate are the sketch's own, so no flush
	// has to follow the merge.
	h := newBufferedHLL(12, 9)
	defer h.Close()
	peer := cardinality.NewHLL(12, 9)
	for i := 0; i < 50000; i++ {
		peer.AddUint64(uint64(i))
	}
	var got float64
	h.with(func(h *cardinality.HLL) {
		if err := h.Merge(peer); err != nil {
			t.Fatal(err)
		}
	})
	h.with(func(h *cardinality.HLL) { got = h.Estimate() })
	if want := peer.Estimate(); got != want {
		t.Fatalf("estimate after quiescent merge = %.1f, want %.1f", got, want)
	}
}

// An estimate is exact for everything propagated: once Propagated
// counts an item, Estimate sees it, with no Sync in between — the read
// is the sketch's own, not a copy refreshed on the propagator's clock.
func TestBufferedHLLEstimateNeedsNoSync(t *testing.T) {
	const p, seed, items = 12, 21, 5000
	serial := cardinality.NewHLL(p, seed)
	h := newBufferedHLL(p, seed)
	defer h.Close()
	w := h.Writer()
	for i := 0; i < items; i++ {
		serial.AddUint64(uint64(i))
		w.Put(hashx.HashUint64(uint64(i), seed))
	}
	w.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for h.prop.propagated.Load() < items {
		if time.Now().After(deadline) {
			t.Fatalf("propagated %d of %d items after 10s", h.prop.propagated.Load(), items)
		}
		runtime.Gosched()
	}
	var got float64
	h.with(func(h *cardinality.HLL) { got = h.Estimate() })
	if want := serial.Estimate(); got != want {
		t.Fatalf("estimate %.1f after propagation, serial HLL %.1f", got, want)
	}
}

// Close while writers are mid-stream must not deadlock or panic;
// post-close handoffs drop silently.
func TestBufferedCloseWithLiveWriters(t *testing.T) {
	c := newBufferedCountMin(256, 4, 5)
	var wg sync.WaitGroup
	started := make(chan struct{}, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := c.Writer()
			started <- struct{}{}
			for i := 0; i < 100000; i++ {
				wr.Put2(uint64(i), 1)
			}
			wr.Flush()
		}()
	}
	for i := 0; i < 8; i++ {
		<-started
	}
	c.Close()
	wg.Wait() // must terminate: every channel wait has a quit escape

	// Idempotent close; Sync returns; reads still answer from the sketch.
	c.Close()
	c.Sync()
	_ = c.n()
	c.with(func(c *frequency.CountMin) { _ = c.EstimateUint64(1) })

	h := newBufferedHLL(12, 5)
	hw := h.Writer()
	hw.Put(1)
	h.Close()
	if len(h.marshal(t)) == 0 {
		t.Fatal("empty snapshot after close")
	}

	f := newBufferedBlockedBloom(1<<12, 7, 5)
	fw := f.Writer()
	fw.Put2(1, 2)
	f.Close()
	fw.Flush()
	f.with(func(f *bloom.BlockedFilter) { _ = f.Contains([]byte("x")) })
}

// Pooled writers recycle across checkouts and keep the registered
// writer count bounded by the pool size.
func TestBufferedPooledWriters(t *testing.T) {
	c := newBufferedCountMin(256, 4, 11)
	defer c.Close()

	size := runtime.GOMAXPROCS(0)
	seen := make(map[*Writer]bool)
	for i := 0; i < 3*size; i++ {
		w := c.checkout()
		seen[w] = true
		w.Put2(uint64(i), 1)
		c.release(w)
	}
	if len(seen) > size {
		t.Fatalf("%d distinct pooled writers, want ≤ %d", len(seen), size)
	}
	if bw := c.BufferedWriters(); bw > size {
		t.Fatalf("BufferedWriters = %d, want ≤ %d", bw, size)
	}
	c.Add([]uint64{7, 8}, []uint64{1, 1})
	c.Sync()
	if n := c.n(); n != uint64(3*size+2) {
		t.Fatalf("N = %d, want %d", n, 3*size+2)
	}
}

// A block put through the pool lands whole and in order, past the
// flush half it starts in: the bytes of the kernel applied to it once.
func TestBufferedSnapshotRoundTrip(t *testing.T) {
	c := newBufferedCountMin(256, 4, 13)
	defer c.Close()
	hs, ws := make([]uint64, 1000), make([]uint64, 1000)
	for i := range hs {
		hs[i], ws[i] = hashx.HashUint64(uint64(i%50), 13), uint64(1+i%3)
	}
	c.Add(hs[:10], ws[:10])
	c.Add(hs[10:], ws[10:])
	serial := frequency.NewCountMin(256, 4, 13)
	serial.AddWeightedHashBatch(hs, ws)
	if !bytes.Equal(c.marshal(t), mustMarshal(t, serial)) {
		t.Fatal("buffered Count-Min is not the kernel applied to the block")
	}
	var snap frequency.CountMin
	if err := snap.UnmarshalBinary(c.marshal(t)); err != nil {
		t.Fatal(err)
	}
	if got, want := snap.EstimateUint64(7), serial.EstimateUint64(7); got != want {
		t.Fatalf("snapshot estimate %d, want %d", got, want)
	}

	h := newBufferedHLL(12, 13)
	defer h.Close()
	h.Add(hs, nil)
	hser := cardinality.NewHLL(12, 13)
	hser.AddHashBatch(hs)
	if !bytes.Equal(h.marshal(t), mustMarshal(t, hser)) {
		t.Fatal("buffered HLL is not the kernel applied to the block")
	}

	f := newBufferedBlockedBloom(1<<12, 7, 13)
	defer f.Close()
	h1, h2 := hashx.Murmur3_128([]byte("hello"), 13)
	f.Add([]uint64{h1}, []uint64{h2})
	var fsnap bloom.BlockedFilter
	if err := fsnap.UnmarshalBinary(f.marshal(t)); err != nil {
		t.Fatal(err)
	}
	if !fsnap.Contains([]byte("hello")) {
		t.Fatal("snapshot lost an item")
	}
}

// The writer hot path must not allocate: a put appends into a
// preallocated buffer and handoff recycles via channels. (The guards
// in zeroalloc_test.go cover the same path at the repo level; this
// one keeps the property local to the package.)
func TestBufferedWriterHotPathAllocs(t *testing.T) {
	for name, b := range map[string]*Buffer{
		"countmin":     newBufferedCountMin(256, 4, 17).Buffer,
		"hll":          newBufferedHLL(12, 17).Buffer,
		"blockedbloom": newBufferedBlockedBloom(1<<12, 7, 17).Buffer,
	} {
		defer b.Close()
		w := b.Writer()
		var i uint64
		put := func() {
			if name == "hll" {
				w.Put(i * 0x9E3779B97F4A7C15)
			} else {
				w.Put2(i*0x9E3779B97F4A7C15, i)
			}
			i++
		}
		if allocs := testing.AllocsPerRun(10000, put); allocs != 0 {
			t.Errorf("%s writer put: %.2f allocs/op, want 0", name, allocs)
		}
		block := make([]uint64, 300)
		if allocs := testing.AllocsPerRun(100, func() { b.Add(block, block) }); allocs != 0 {
			t.Errorf("%s pooled Add: %.2f allocs/op, want 0", name, allocs)
		}
	}
}
