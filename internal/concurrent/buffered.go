package concurrent

// Local-buffer/global-propagation sketches in the architecture of
// "Fast Concurrent Data Sketches" (Rinberg et al., PPoPP 2020 / TOPC
// 2022), the design the paper's DataSketches discussion points at for
// multi-writer ingest. The concurrent holders in this package keep
// every writer on the same shared memory, so under many cores the hot
// cache lines (and the shared n counter) ping-pong between sockets and
// throughput flattens. A buffered sketch is a buffer in front of its
// family's holder:
//
//   - Each writer owns a bounded local buffer (a handle from Writer(),
//     or one a batch borrows): updates append pre-hashed items to
//     private memory — pure L1 traffic, no synchronization. A flush
//     half holds the arguments of the holder's batch kernel.
//   - A filled buffer is handed to a background propagator goroutine
//     over a channel; the propagator — the only goroutine that writes
//     through the buffer — passes it to the holder's batch kernel and
//     recycles it to its writer. The writer's two buffers cycling
//     through this handoff are the backpressure that bounds
//     unpropagated state.
//   - Every read and Merge is the holder's own, with relaxed
//     consistency: it may miss items still sitting in local buffers.
//     The staleness is quantified: at most writers × WriterBuffer items
//     are buffered-but-unpropagated at any instant (each writer holds
//     two flush halves of WriterBuffer/2 items each).
//
// Because propagation applies the exact updates the plain sketch would
// have applied — and Count-Min addition, HLL register max, and Bloom
// bit OR are all commutative — a buffered sketch that has been flushed
// and synced is byte-identical to serial ingest of the same multiset
// (property-tested in buffered_test.go).
//
// Lifecycle: Close stops the propagator. Items still buffered in
// writer handles at Close are dropped (flush first for an exact
// drain); writers that race a Close never block — every channel wait
// has a quit escape.

import (
	"runtime"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/frequency"
	"repro/internal/hashx"
)

// DefaultWriterBuffer is the per-writer local capacity b (in items)
// used by the plain constructors: two flush halves of b/2. Larger
// buffers amortize handoff further but widen the staleness window;
// 256 keeps a writer's working set inside L1 while making the channel
// round-trip cost ~1/128 of an update.
const DefaultWriterBuffer = 256

// flushBuf is one flush half: the two word slices the holder's batch
// kernel takes (b stays empty for a kernel of one slice), plus the
// recycle channel of the writer that owns it.
type flushBuf struct {
	a, b []uint64
	home chan *flushBuf
}

func newFlushBuf(half int, home chan *flushBuf) *flushBuf {
	return &flushBuf{a: make([]uint64, 0, half), b: make([]uint64, 0, half), home: home}
}

func (f *flushBuf) reset() { f.a, f.b = f.a[:0], f.b[:0] }

// propagator runs the single goroutine that passes handed-off buffers
// to apply, the holder's batch kernel.
type propagator struct {
	flushq     chan *flushBuf
	ctl        chan func()
	quit       chan struct{}
	done       chan struct{}
	closed     atomic.Bool
	writers    atomic.Int64
	propagated atomic.Uint64
	half       int
	apply      func(a, b []uint64)
}

// flushQueue bounds the handed-off buffers waiting for the propagator.
// A writer has at most its two halves queued, so up to 128 writers
// wait only on their own recycled half, never on the queue.
const flushQueue = 256

func newPropagator(half int, apply func(a, b []uint64)) *propagator {
	p := &propagator{
		flushq: make(chan *flushBuf, flushQueue),
		ctl:    make(chan func()),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		half:   half,
		apply:  apply,
	}
	go p.loop()
	return p
}

func (p *propagator) loop() {
	defer close(p.done)
	for {
		select {
		case buf := <-p.flushq:
			p.consume(buf)
		case op := <-p.ctl:
			// Barrier semantics: everything handed off before the
			// caller blocked on ctl is in flushq now; apply it all,
			// then run the op.
			p.drain()
			op()
		case <-p.quit:
			p.drain()
			return
		}
	}
}

// drain applies every queued buffer without blocking.
func (p *propagator) drain() {
	for {
		select {
		case buf := <-p.flushq:
			p.consume(buf)
		default:
			return
		}
	}
}

func (p *propagator) consume(buf *flushBuf) {
	p.apply(buf.a, buf.b)
	p.propagated.Add(uint64(len(buf.a)))
	buf.reset()
	select {
	case buf.home <- buf:
	default: // owner replaced it after racing a Close; let it be collected
	}
}

// do runs op on the propagator goroutine after a full backlog drain,
// blocking until it completes. Returns false if the propagator has
// been closed (op did not run).
func (p *propagator) do(op func()) bool {
	ran := make(chan struct{})
	select {
	case p.ctl <- func() { op(); close(ran) }:
		<-ran
		return true
	case <-p.quit:
		return false
	}
}

// close stops the propagator after a final drain and waits for it to
// exit.
func (p *propagator) close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
	}
	<-p.done
}

// bufWriter is a writer handle: the active flush half, the recycle
// channel its two halves cycle through, and the seed items are hashed
// under. The three exported handle types are this struct under a
// family's name; they differ only in how an item becomes words.
type bufWriter struct {
	p    *propagator
	buf  *flushBuf
	home chan *flushBuf
	seed uint64
}

// put appends a one-word update to the local buffer, handing the
// buffer off when it fills. The hot path is an L1 store plus a length
// compare — no atomics, no shared lines, no allocation.
func (w *bufWriter) put(a uint64) {
	buf := w.buf
	buf.a = append(buf.a, a)
	if len(buf.a) == cap(buf.a) {
		w.handoff()
	}
}

// put2 is put for a kernel that takes two words an item.
func (w *bufWriter) put2(a, b uint64) {
	buf := w.buf
	buf.a, buf.b = append(buf.a, a), append(buf.b, b)
	if len(buf.a) == cap(buf.a) {
		w.handoff()
	}
}

// handoff pushes the active buffer to the propagator and takes the
// recycled one back. The blocking receive is the backpressure bounding
// a writer's unpropagated items to its two flush halves; both waits
// escape through quit so a writer racing a Close never blocks forever
// (its buffered items are dropped, the documented Close contract).
func (w *bufWriter) handoff() {
	p := w.p
	if p.closed.Load() {
		w.buf.reset()
		return
	}
	select {
	case p.flushq <- w.buf:
	case <-p.quit:
		w.buf.reset()
		return
	}
	select {
	case w.buf = <-w.home:
	case <-p.quit:
		select {
		case w.buf = <-w.home:
		default:
			w.buf = newFlushBuf(p.half, w.home)
		}
	}
}

// flush hands off a partially filled buffer so its items become
// visible once the propagator applies it.
func (w *bufWriter) flush() {
	if len(w.buf.a) > 0 {
		w.handoff()
	}
}

// buffered is the family-independent part of a buffered sketch: the
// propagator, the per-writer capacity, the seed writers hash under and
// the serving pool of writer handles. The exported sketch types embed
// it next to their holder.
type buffered struct {
	prop      *propagator
	writerBuf int
	seed      uint64
	pool      chan *bufWriter
}

// start launches the propagator in front of apply, the holder's batch
// kernel. writerBuf is rounded down to an even count, minimum 2 (two
// flush halves). The pool holds GOMAXPROCS handles: enough that every
// concurrent request goroutine gets its own, small enough that the
// staleness bound writers × WriterBuffer stays tight.
func (b *buffered) start(seed uint64, writerBuf int, apply func(a, b []uint64)) {
	if writerBuf &^= 1; writerBuf < 2 {
		writerBuf = 2
	}
	*b = buffered{
		prop:      newPropagator(writerBuf/2, apply),
		writerBuf: writerBuf,
		seed:      seed,
		pool:      make(chan *bufWriter, runtime.GOMAXPROCS(0)),
	}
}

// newWriter registers a writer handle with its two flush halves.
func (b *buffered) newWriter() *bufWriter {
	home := make(chan *flushBuf, 2)
	home <- newFlushBuf(b.prop.half, home)
	b.prop.writers.Add(1)
	return &bufWriter{p: b.prop, buf: newFlushBuf(b.prop.half, home), home: home, seed: b.seed}
}

// checkout takes a handle out of the serving pool, creating one if all
// are in use. The pool is how request-scoped ingest reuses local
// buffers across batches without a handle per request.
func (b *buffered) checkout() *bufWriter {
	select {
	case w := <-b.pool:
		return w
	default:
		return b.newWriter()
	}
}

// release flushes a pooled handle and returns it, unregistering it
// instead if the pool is already full.
func (b *buffered) release(w *bufWriter) {
	w.flush()
	select {
	case b.pool <- w:
	default:
		b.prop.writers.Add(-1)
	}
}

// Sync flushes every idle pooled writer and waits for the propagator
// to apply all buffers handed off before the call. Handles checked out
// by concurrent goroutines (or owned Writer handles) are their
// holders' responsibility; the server's per-sketch WAL lock guarantees
// none are during snapshot capture.
func (b *buffered) Sync() {
	var ws []*bufWriter
	for {
		select {
		case w := <-b.pool:
			w.flush()
			ws = append(ws, w)
			continue
		default:
		}
		break
	}
	b.prop.do(func() {})
	for _, w := range ws {
		b.release(w)
	}
}

// WriterBuffer returns the per-writer local capacity b.
func (b *buffered) WriterBuffer() int { return b.writerBuf }

// BufferedWriters returns the number of live writer handles.
func (b *buffered) BufferedWriters() int { return int(b.prop.writers.Load()) }

// StalenessBound returns the maximum number of ingested items a read
// can currently miss: writers × per-writer buffer.
func (b *buffered) StalenessBound() int { return b.BufferedWriters() * b.writerBuf }

// Propagated returns the number of updates applied to the holder — the
// read-visible epoch.
func (b *buffered) Propagated() uint64 { return b.prop.propagated.Load() }

// Close stops the propagator; buffered-but-unflushed writer items are
// dropped. Do not ingest after Close.
func (b *buffered) Close() { b.prop.close() }

// ---------------------------------------------------------------------
// BufferedCountMin

// BufferedCountMin is a Count-Min sketch with local-buffer/global-
// propagation ingest in front of an AtomicCountMin. Writers append
// pre-hashed (hash, weight) pairs to private buffers — through a handle
// of their own (Writer), or one borrowed for a batch
// (AddWeightedHashBatch); the propagator passes filled buffers to the
// holder's AddWeightedHashBatch, so the atomic adds never contend.
// Reads and Merge are the holder's own: wait-free atomic loads that may
// lag ingest by at most StalenessBound() items. Snapshot, AppendCells,
// MarshalBinary and AppendBinary sync first. The holder's write methods
// (Add, AddHash, ...) stay reachable and correct — the holder is
// concurrent-safe and adds commute — but bypass the buffer, as Merge
// does.
//
// Addressing is the holder's frequency.Layout (equal layout ⇒ identical
// cells), so Merge and Snapshot exchanges with plain sketches stay exact
// and flushed+synced state is byte-identical to serial ingest.
type BufferedCountMin struct {
	buffered
	*AtomicCountMin
}

// NewBufferedCountMin creates a buffered Count-Min sketch with the
// default per-writer buffer.
func NewBufferedCountMin(width, depth int, seed uint64) *BufferedCountMin {
	return BufferCountMin(NewAtomicCountMin(width, depth, seed), DefaultWriterBuffer)
}

// BufferCountMin puts local-buffer/global-propagation ingest in front
// of an already-built atomic sketch.
func BufferCountMin(global *AtomicCountMin, writerBuf int) *BufferedCountMin {
	c := &BufferedCountMin{AtomicCountMin: global}
	c.start(global.Seed(), writerBuf, global.AddWeightedHashBatch)
	return c
}

// BufferedCountMinWriter is one writer's bounded local buffer. Handles
// are not safe for concurrent use; give each goroutine its own.
type BufferedCountMinWriter bufWriter

// Writer registers and returns a new writer handle.
func (c *BufferedCountMin) Writer() *BufferedCountMinWriter {
	return (*BufferedCountMinWriter)(c.newWriter())
}

// AddWeightedHashBatch buffers hs[i] with weight ws[i] through a pooled
// writer handle flushed at batch end, so the unit the WAL logs is the
// unit the propagator receives and a snapshot (which syncs) holds it.
func (c *BufferedCountMin) AddWeightedHashBatch(hs, ws []uint64) {
	w := c.checkout()
	(*BufferedCountMinWriter)(w).AddWeightedHashBatch(hs, ws)
	c.release(w)
}

// Add buffers weight occurrences of a byte-slice item; same
// item→bucket map as derived-mode frequency.CountMin.
func (w *BufferedCountMinWriter) Add(item []byte, weight uint64) {
	w.AddHash(hashx.XXHash64(item, w.seed), weight)
}

// AddString buffers a string item without copying or allocating.
func (w *BufferedCountMinWriter) AddString(item string, weight uint64) {
	w.AddHash(hashx.XXHash64String(item, w.seed), weight)
}

// AddUint64 buffers an integer item.
func (w *BufferedCountMinWriter) AddUint64(item, weight uint64) {
	w.AddHash(hashx.HashUint64(item, w.seed), weight)
}

// AddHash buffers a pre-hashed update: one L1 append, handed off every
// WriterBuffer/2 items.
func (w *BufferedCountMinWriter) AddHash(h, weight uint64) { (*bufWriter)(w).put2(h, weight) }

// AddWeightedHashBatch buffers a block of pre-hashed updates, hs[i]
// with weight ws[i], in order.
func (w *BufferedCountMinWriter) AddWeightedHashBatch(hs, ws []uint64) {
	for i, h := range hs {
		(*bufWriter)(w).put2(h, ws[i])
	}
}

// Seed returns the seed items are hashed under: the holder's.
func (w *BufferedCountMinWriter) Seed() uint64 { return w.seed }

// Flush hands off the partial buffer so its items reach the holder
// once the propagator applies it.
func (w *BufferedCountMinWriter) Flush() { (*bufWriter)(w).flush() }

// Snapshot syncs and copies the holder's counters into a plain
// CountMin.
func (c *BufferedCountMin) Snapshot() *frequency.CountMin {
	c.Sync()
	return c.AtomicCountMin.Snapshot()
}

// AppendCells syncs like Snapshot, then appends the cells a point query
// for item reads — what a synced snapshot's AppendCells would return.
func (c *BufferedCountMin) AppendCells(dst []uint64, item []byte) []uint64 {
	c.Sync()
	return c.AtomicCountMin.AppendCells(dst, item)
}

// MarshalBinary serializes a synced snapshot in the standard Count-Min
// envelope.
func (c *BufferedCountMin) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst.
func (c *BufferedCountMin) AppendBinary(dst []byte) ([]byte, error) {
	c.Sync()
	return c.AtomicCountMin.AppendBinary(dst)
}

// ---------------------------------------------------------------------
// BufferedHLL

// BufferedHLL is a HyperLogLog with local-buffer/global-propagation
// ingest in front of a ShardedHLL: writers buffer one hash an item, and
// the propagator passes filled buffers to AddHashBatch on one handle of
// the holder, taken at construction. Reads and Merge are the holder's
// own: the first Estimate after a propagation rebuilds the holder's
// merged view, later ones read its cache, and an estimate is exact for
// everything propagated. Snapshot, MarshalBinary and AppendBinary sync
// first. The holder's write methods (Handle and its adds) stay
// reachable and correct — the holder is concurrent-safe and register
// max commutes — but bypass the buffer, as Merge does.
type BufferedHLL struct {
	buffered
	*ShardedHLL
}

// NewBufferedHLL creates a buffered HLL with dense precision p and the
// default per-writer buffer, over a one-shard holder: the propagator is
// its only buffered writer, and more shards would only add merge work
// to every read.
func NewBufferedHLL(p uint8, seed uint64) *BufferedHLL {
	return BufferHLL(NewShardedHLL(1, p, seed), DefaultWriterBuffer)
}

// BufferHLL puts local-buffer/global-propagation ingest in front of an
// already-built sharded HLL.
func BufferHLL(global *ShardedHLL, writerBuf int) *BufferedHLL {
	h := &BufferedHLL{ShardedHLL: global}
	handle := global.Handle()
	h.start(global.seed, writerBuf, func(a, _ []uint64) { handle.AddHashBatch(a) })
	return h
}

// BufferedHLLWriter is one writer's bounded local buffer; not safe for
// concurrent use.
type BufferedHLLWriter bufWriter

// Writer registers and returns a new writer handle.
func (h *BufferedHLL) Writer() *BufferedHLLWriter { return (*BufferedHLLWriter)(h.newWriter()) }

// AddBatch buffers the items through a pooled writer handle flushed at
// batch end, as BufferedCountMin.AddWeightedHashBatch does.
func (h *BufferedHLL) AddBatch(items [][]byte) {
	w := h.checkout()
	(*BufferedHLLWriter)(w).AddBatch(items)
	h.release(w)
}

// Add buffers a byte-slice item.
func (w *BufferedHLLWriter) Add(item []byte) {
	h1, _ := hashx.Murmur3_128(item, w.seed)
	w.AddHash(h1)
}

// AddString buffers a string item without copying or allocating.
func (w *BufferedHLLWriter) AddString(item string) {
	h1, _ := hashx.Murmur3_128String(item, w.seed)
	w.AddHash(h1)
}

// AddUint64 buffers an integer item.
func (w *BufferedHLLWriter) AddUint64(v uint64) { w.AddHash(hashx.HashUint64(v, w.seed)) }

// AddHash buffers a pre-hashed item.
func (w *BufferedHLLWriter) AddHash(x uint64) { (*bufWriter)(w).put(x) }

// AddBatch buffers many byte-slice items; items are hashed here (not
// retained), so the slices may alias pooled request buffers.
func (w *BufferedHLLWriter) AddBatch(items [][]byte) {
	for _, item := range items {
		w.Add(item)
	}
}

// Flush hands off the partial buffer.
func (w *BufferedHLLWriter) Flush() { (*bufWriter)(w).flush() }

// Snapshot syncs and returns a private copy of the holder's merged
// sketch.
func (h *BufferedHLL) Snapshot() *cardinality.HLL {
	h.Sync()
	return h.ShardedHLL.Snapshot()
}

// MarshalBinary serializes a synced snapshot in the standard HLL
// envelope.
func (h *BufferedHLL) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst.
func (h *BufferedHLL) AppendBinary(dst []byte) ([]byte, error) {
	h.Sync()
	return h.ShardedHLL.AppendBinary(dst)
}

// ---------------------------------------------------------------------
// BufferedBlockedBloom

// BufferedBlockedBloom is a blocked Bloom filter with local-buffer/
// global-propagation ingest in front of an AtomicBlockedBloom: writers
// buffer (h1, h2) pairs; the propagator passes filled buffers to the
// holder's AddHashBatch, so its CAS loops never retry under writer
// contention. Reads and Merge are the holder's own: an item is always
// found once its buffer has propagated, and the staleness is bounded
// by StalenessBound() items. Snapshot, MarshalBinary and AppendBinary
// sync first. The holder's write methods (Add, AddHash, ...) stay
// reachable and correct — the holder is concurrent-safe and bit OR
// commutes — but bypass the buffer, as Merge does.
type BufferedBlockedBloom struct {
	buffered
	*AtomicBlockedBloom
}

// NewBufferedBlockedBloom creates a buffered blocked filter with at
// least m bits (rounded up to whole 512-bit blocks), k probes per
// item, and the default per-writer buffer.
func NewBufferedBlockedBloom(m uint64, k int, seed uint64) *BufferedBlockedBloom {
	return BufferBlockedBloom(NewAtomicBlockedBloom(m, k, seed), DefaultWriterBuffer)
}

// BufferBlockedBloom puts local-buffer/global-propagation ingest in
// front of an already-built atomic filter.
func BufferBlockedBloom(global *AtomicBlockedBloom, writerBuf int) *BufferedBlockedBloom {
	f := &BufferedBlockedBloom{AtomicBlockedBloom: global}
	f.start(global.Seed(), writerBuf, global.AddHashBatch)
	return f
}

// BufferedBlockedBloomWriter is one writer's bounded local buffer; not
// safe for concurrent use.
type BufferedBlockedBloomWriter bufWriter

// Writer registers and returns a new writer handle.
func (f *BufferedBlockedBloom) Writer() *BufferedBlockedBloomWriter {
	return (*BufferedBlockedBloomWriter)(f.newWriter())
}

// AddBatch buffers the items through a pooled writer handle flushed at
// batch end, as BufferedCountMin.AddWeightedHashBatch does.
func (f *BufferedBlockedBloom) AddBatch(items [][]byte) {
	w := f.checkout()
	(*BufferedBlockedBloomWriter)(w).AddBatch(items)
	f.release(w)
}

// Add buffers a byte-slice item.
func (w *BufferedBlockedBloomWriter) Add(item []byte) {
	h1, h2 := hashx.Murmur3_128(item, w.seed)
	w.AddHash(h1, h2)
}

// AddString buffers a string item without copying or allocating.
func (w *BufferedBlockedBloomWriter) AddString(item string) {
	h1, h2 := hashx.Murmur3_128String(item, w.seed)
	w.AddHash(h1, h2)
}

// AddHash buffers a pre-hashed item.
func (w *BufferedBlockedBloomWriter) AddHash(h1, h2 uint64) { (*bufWriter)(w).put2(h1, h2) }

// AddBatch buffers many byte-slice items; the slices are hashed here,
// not retained.
func (w *BufferedBlockedBloomWriter) AddBatch(items [][]byte) {
	for _, item := range items {
		w.Add(item)
	}
}

// Flush hands off the partial buffer.
func (w *BufferedBlockedBloomWriter) Flush() { (*bufWriter)(w).flush() }

// Snapshot syncs and copies the holder's bits into a plain
// BlockedFilter.
func (f *BufferedBlockedBloom) Snapshot() *bloom.BlockedFilter {
	f.Sync()
	return f.AtomicBlockedBloom.Snapshot()
}

// MarshalBinary serializes a synced snapshot in the standard
// blocked-Bloom envelope.
func (f *BufferedBlockedBloom) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst.
func (f *BufferedBlockedBloom) AppendBinary(dst []byte) ([]byte, error) {
	f.Sync()
	return f.AtomicBlockedBloom.AppendBinary(dst)
}
