package concurrent

// Local-buffer/global-propagation sketches in the architecture of
// "Fast Concurrent Data Sketches" (Rinberg et al., PPoPP 2020 / TOPC
// 2022), the design the paper's DataSketches discussion points at for
// multi-writer ingest. The atomic wrappers in this package keep every
// writer on the same shared memory, so under many cores the hot cache
// lines (and the shared n counter) ping-pong between sockets and
// throughput flattens. Here writers never touch shared sketch state:
//
//   - Each writer owns a bounded local buffer (a handle from Writer(),
//     or one a batch borrows): updates append pre-hashed items to
//     private memory — pure L1 traffic, no synchronization.
//   - A filled buffer is handed to a background propagator goroutine
//     over a channel; the propagator — the only goroutine that writes
//     the global sketch — folds buffers in and recycles them to their
//     writer. The writer's two buffers cycling through this handoff
//     are the backpressure that bounds unpropagated state.
//   - Readers are wait-free with relaxed consistency: they see the
//     global sketch (atomic counter/word loads, or a published
//     estimate for HLL) and may miss items still sitting in local
//     buffers. The staleness is quantified: at most
//     writers × WriterBuffer items are buffered-but-unpropagated at
//     any instant (each writer holds two flush halves of
//     WriterBuffer/2 items each).
//
// Because propagation replays the exact per-item updates the plain
// sketch would have applied — and Count-Min addition, HLL register
// max, and Bloom bit OR are all commutative — a buffered sketch that
// has been flushed and synced is byte-identical to serial ingest of
// the same multiset (property-tested in buffered_test.go).
//
// Lifecycle: Close stops the propagator. Items still buffered in
// writer handles at Close are dropped (flush first for an exact
// drain); writers that race a Close never block — every channel wait
// has a quit escape.

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

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

// pair is one buffered update: the pre-hashed item plus its companion
// word (Count-Min weight, Bloom h2; unused for HLL).
type pair struct{ a, b uint64 }

// flushBuf is one flush half: a bounded pair slice plus the recycle
// channel of the writer that owns it.
type flushBuf struct {
	pairs []pair
	home  chan *flushBuf
}

// propagator runs the single goroutine that owns the global sketch.
// apply folds one buffer of updates in; publish (optional) refreshes
// derived read state after a drain round — rounds coalesce the backlog
// so its cost amortizes over many buffers under load.
type propagator struct {
	flushq     chan *flushBuf
	ctl        chan func()
	quit       chan struct{}
	done       chan struct{}
	closed     atomic.Bool
	writers    atomic.Int64
	propagated atomic.Uint64
	half       int
	apply      func([]pair)
	publish    func()

	// Publish throttling (propagator-goroutine state, no locking): a
	// costly publish — the HLL estimate recomputation scans every
	// register — runs at most once per publishInterval under load, with
	// a dirty flag plus one-shot timer guaranteeing a final publish
	// after the last handoff. Barriers (ctl ops, quit) always publish,
	// so Sync keeps its exactness contract.
	lastPub  time.Time
	pubDirty bool
	pubTimer *time.Timer
	pubC     <-chan time.Time
}

// drainRound bounds how many backlogged buffers one round coalesces
// before publishing, so read staleness stays bounded in time as well
// as items even under a saturating writer fleet.
const drainRound = 64

// publishInterval caps how often the throttled publish path recomputes
// derived read state. 1ms keeps estimate staleness imperceptible while
// amortizing a ~50µs HLL register scan over thousands of updates.
const publishInterval = time.Millisecond

func newPropagator(writerBuf int, apply func([]pair), publish func()) *propagator {
	p := &propagator{
		flushq:  make(chan *flushBuf, 4*drainRound),
		ctl:     make(chan func()),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		half:    writerBuf / 2,
		apply:   apply,
		publish: publish,
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
			p.drainBacklog(drainRound - 1)
			p.maybePublish()
		case <-p.pubC:
			p.pubC = nil // keep pubTimer for Reset-reuse: one alloc per propagator
			if p.pubDirty {
				p.forcePublish()
			}
		case op := <-p.ctl:
			// Barrier semantics: everything handed off before the
			// caller blocked on ctl is in flushq now; drain it all,
			// refresh read state, then run the op (which refreshes
			// again before it releases its caller, see do).
			p.drainBacklog(-1)
			p.forcePublish()
			op()
		case <-p.quit:
			p.drainBacklog(-1)
			p.forcePublish()
			if p.pubTimer != nil {
				p.pubTimer.Stop()
			}
			return
		}
	}
}

// maybePublish refreshes derived read state unless a publish ran
// within publishInterval; a skipped publish arms the one-shot timer so
// the state still converges after the last handoff.
func (p *propagator) maybePublish() {
	if p.publish == nil {
		return
	}
	if time.Since(p.lastPub) >= publishInterval {
		p.forcePublish()
		return
	}
	p.pubDirty = true
	if p.pubC == nil {
		if p.pubTimer == nil {
			p.pubTimer = time.NewTimer(publishInterval)
		} else {
			p.pubTimer.Reset(publishInterval)
		}
		p.pubC = p.pubTimer.C
	}
}

func (p *propagator) forcePublish() {
	if p.publish == nil {
		return
	}
	p.publish()
	p.lastPub = time.Now()
	p.pubDirty = false
}

// drainBacklog consumes up to max queued buffers (all of them when max
// is negative) without blocking.
func (p *propagator) drainBacklog(max int) {
	for n := 0; max < 0 || n < max; n++ {
		select {
		case buf := <-p.flushq:
			p.consume(buf)
		default:
			return
		}
	}
}

func (p *propagator) consume(buf *flushBuf) {
	p.apply(buf.pairs)
	p.propagated.Add(uint64(len(buf.pairs)))
	buf.pairs = buf.pairs[:0]
	select {
	case buf.home <- buf:
	default: // owner replaced it after racing a Close; let it be collected
	}
}

// do runs op on the propagator goroutine after a full backlog drain
// and publish, blocking until it completes and read state has been
// refreshed once more — the op itself may mutate the global (Merge on
// a quiescent sketch sees no later flush to publish for it), and the
// caller must not return before that is visible. Returns false if the
// propagator has been closed (op did not run).
func (p *propagator) do(op func()) bool {
	ran := make(chan struct{})
	select {
	case p.ctl <- func() { op(); p.forcePublish(); close(ran) }:
		<-ran
		return true
	case <-p.quit:
		return false
	}
}

// close stops the propagator after a final drain and waits for it to
// exit; the wait gives callers a happens-before edge to every write
// the propagator made to the global sketch.
func (p *propagator) close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
	}
	<-p.done
}

// bufWriter is a writer handle: the active flush half, the recycle
// channel its two halves cycle through, and the seed items are hashed
// under. The three exported handle types are this struct under a
// family's name; they differ only in how an item becomes a pair.
type bufWriter struct {
	p    *propagator
	buf  *flushBuf
	home chan *flushBuf
	seed uint64
}

// put appends one update to the local buffer, handing the buffer off
// when it fills. The hot path is an L1 store plus a length compare —
// no atomics, no shared lines, no allocation.
func (w *bufWriter) put(a, b uint64) {
	buf := w.buf
	buf.pairs = append(buf.pairs, pair{a, b})
	if len(buf.pairs) == cap(buf.pairs) {
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
		w.buf.pairs = w.buf.pairs[:0]
		return
	}
	select {
	case p.flushq <- w.buf:
	case <-p.quit:
		w.buf.pairs = w.buf.pairs[:0]
		return
	}
	select {
	case w.buf = <-w.home:
	case <-p.quit:
		select {
		case w.buf = <-w.home:
		default:
			w.buf = &flushBuf{pairs: make([]pair, 0, p.half), home: w.home}
		}
	}
}

// flush hands off a partially filled buffer so its items become
// visible on the next propagation round.
func (w *bufWriter) flush() {
	if len(w.buf.pairs) > 0 {
		w.handoff()
	}
}

// buffered is the family-independent whole of a buffered sketch: the
// global G only the propagator writes, the propagator, the per-writer
// capacity, and the serving pool of writer handles. The exported
// sketch types embed it and add what depends on the family — how an
// item is pre-hashed into a pair, how a pair is applied to G, how G is
// read.
type buffered[G interface {
	Seed() uint64
	SizeBytes() int
}] struct {
	global    G
	prop      *propagator
	writerBuf int
	pool      chan *bufWriter
}

// start fills in the wrapper around an already-built global and
// launches the propagator. writerBuf is rounded down to an even count,
// minimum 2 (two flush halves). The pool holds GOMAXPROCS handles:
// enough that every concurrent request goroutine gets its own, small
// enough that the staleness bound writers × WriterBuffer stays tight.
func (b *buffered[G]) start(global G, writerBuf int, apply func([]pair), publish func()) {
	if writerBuf &^= 1; writerBuf < 2 {
		writerBuf = 2
	}
	*b = buffered[G]{
		global:    global,
		prop:      newPropagator(writerBuf, apply, publish),
		writerBuf: writerBuf,
		pool:      make(chan *bufWriter, runtime.GOMAXPROCS(0)),
	}
}

// newWriter registers a writer handle with its two flush halves.
func (b *buffered[G]) newWriter() *bufWriter {
	home := make(chan *flushBuf, 2)
	home <- &flushBuf{pairs: make([]pair, 0, b.prop.half), home: home}
	b.prop.writers.Add(1)
	return &bufWriter{
		p:    b.prop,
		buf:  &flushBuf{pairs: make([]pair, 0, b.prop.half), home: home},
		home: home,
		seed: b.global.Seed(),
	}
}

// checkout takes a handle out of the serving pool, creating one if all
// are in use. The pool is how request-scoped ingest reuses local
// buffers across batches without a handle per request.
func (b *buffered[G]) checkout() *bufWriter {
	select {
	case w := <-b.pool:
		return w
	default:
		return b.newWriter()
	}
}

// release flushes a pooled handle and returns it, unregistering it
// instead if the pool is already full.
func (b *buffered[G]) release(w *bufWriter) {
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
func (b *buffered[G]) Sync() {
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

// onGlobal runs op against a global the propagator goroutine owns
// outright (the plain HLL): on that goroutine while it lives, directly
// after it has exited (the done-channel wait establishes the
// happens-before edge).
func (b *buffered[G]) onGlobal(op func()) {
	if !b.prop.do(op) {
		<-b.prop.done
		op()
	}
}

// Seed returns the hash seed.
func (b *buffered[G]) Seed() uint64 { return b.global.Seed() }

// SizeBytes returns the global sketch's storage size.
func (b *buffered[G]) SizeBytes() int { return b.global.SizeBytes() }

// WriterBuffer returns the per-writer local capacity b.
func (b *buffered[G]) WriterBuffer() int { return b.writerBuf }

// BufferedWriters returns the number of live writer handles.
func (b *buffered[G]) BufferedWriters() int { return int(b.prop.writers.Load()) }

// StalenessBound returns the maximum number of ingested items a read
// can currently miss: writers × per-writer buffer.
func (b *buffered[G]) StalenessBound() int { return b.BufferedWriters() * b.writerBuf }

// Propagated returns the number of updates folded into the global
// sketch — the read-visible epoch.
func (b *buffered[G]) Propagated() uint64 { return b.prop.propagated.Load() }

// Close stops the propagator; buffered-but-unflushed writer items are
// dropped. Do not ingest after Close.
func (b *buffered[G]) Close() { b.prop.close() }

// ---------------------------------------------------------------------
// BufferedCountMin

// BufferedCountMin is a Count-Min sketch with local-buffer/global-
// propagation ingest. Writers append pre-hashed (hash, weight) pairs to
// private buffers — through a handle of their own (Writer), or one
// borrowed for a batch (AddWeightedHashBatch); the propagator folds filled
// buffers into an AtomicCountMin global it alone writes, so the
// atomic adds never contend. Reads (Estimate, N) are wait-free atomic
// loads against the global and may lag ingest by at most
// BufferedWriters() × WriterBuffer() items.
//
// Addressing is the global's frequency.Layout (equal layout ⇒ identical
// cells), so Merge and Snapshot exchanges with plain sketches stay exact
// and flushed+synced state is byte-identical to serial ingest.
type BufferedCountMin struct {
	buffered[*AtomicCountMin]
}

// NewBufferedCountMin creates a buffered Count-Min sketch with the
// default per-writer buffer.
func NewBufferedCountMin(width, depth int, seed uint64) *BufferedCountMin {
	return BufferCountMin(NewAtomicCountMin(width, depth, seed), DefaultWriterBuffer)
}

// BufferCountMin puts local-buffer/global-propagation ingest in front
// of an already-built atomic sketch, which the propagator alone may
// write from here on.
func BufferCountMin(global *AtomicCountMin, writerBuf int) *BufferedCountMin {
	c := new(BufferedCountMin)
	c.start(global, writerBuf, func(pairs []pair) {
		for _, pr := range pairs {
			global.AddHash(pr.a, pr.b)
		}
	}, nil)
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
func (w *BufferedCountMinWriter) AddHash(h, weight uint64) { (*bufWriter)(w).put(h, weight) }

// AddWeightedHashBatch buffers a block of pre-hashed updates, hs[i]
// with weight ws[i], in order.
func (w *BufferedCountMinWriter) AddWeightedHashBatch(hs, ws []uint64) {
	for i, h := range hs {
		(*bufWriter)(w).put(h, ws[i])
	}
}

// Seed returns the seed items are hashed under: the global sketch's.
func (w *BufferedCountMinWriter) Seed() uint64 { return w.seed }

// Flush hands off the partial buffer so its items reach the global
// sketch on the next propagation round.
func (w *BufferedCountMinWriter) Flush() { (*bufWriter)(w).flush() }

// Estimate returns the wait-free point estimate for a byte-slice item,
// read from the global sketch (never undercounts propagated updates;
// may miss still-buffered ones).
func (c *BufferedCountMin) Estimate(item []byte) uint64 { return c.global.Estimate(item) }

// EstimateUint64 returns the wait-free point estimate for an integer
// item.
func (c *BufferedCountMin) EstimateUint64(item uint64) uint64 { return c.global.EstimateUint64(item) }

// N returns the total propagated weight.
func (c *BufferedCountMin) N() uint64 { return c.global.N() }

// Width returns the bucket count per row.
func (c *BufferedCountMin) Width() int { return c.global.Width() }

// Depth returns the number of rows.
func (c *BufferedCountMin) Depth() int { return c.global.Depth() }

// Layout returns the global's layout.
func (c *BufferedCountMin) Layout() frequency.Layout { return c.global.Layout() }

// Merge atomically folds a hash-compatible plain CountMin into the
// global sketch; safe to call concurrently with buffered ingest.
func (c *BufferedCountMin) Merge(other *frequency.CountMin) error { return c.global.Merge(other) }

// Snapshot syncs and copies the global counters into a plain CountMin.
func (c *BufferedCountMin) Snapshot() *frequency.CountMin {
	c.Sync()
	return c.global.Snapshot()
}

// AppendCells syncs like Snapshot, then appends the cells a point query
// for item reads — what a synced snapshot's AppendCells would return.
func (c *BufferedCountMin) AppendCells(dst []uint64, item []byte) []uint64 {
	c.Sync()
	return c.global.AppendCells(dst, item)
}

// MarshalBinary serializes a synced snapshot in the standard Count-Min
// envelope.
func (c *BufferedCountMin) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst.
func (c *BufferedCountMin) AppendBinary(dst []byte) ([]byte, error) {
	c.Sync()
	return c.global.AppendBinary(dst)
}

// ---------------------------------------------------------------------
// BufferedHLL

// BufferedHLL is a HyperLogLog with local-buffer/global-propagation
// ingest. The propagator owns a plain cardinality.HLL and republishes
// the estimate (an atomic float) after every propagation round, so
// Estimate is a wait-free single load — cheaper than even the sharded
// HLL's epoch-checked merge cache — at the price of bounded staleness
// (≤ BufferedWriters() × WriterBuffer() items plus the current drain
// round).
type BufferedHLL struct {
	buffered[*cardinality.HLL]               // the propagator goroutine owns the global outright
	est                        atomic.Uint64 // Float64bits of the published estimate
}

// NewBufferedHLL creates a buffered HLL with dense precision p and the
// default per-writer buffer.
func NewBufferedHLL(p uint8, seed uint64) *BufferedHLL {
	return BufferHLL(cardinality.NewHLL(p, seed), DefaultWriterBuffer)
}

// BufferHLL puts local-buffer/global-propagation ingest in front of an
// already-built plain HLL, which becomes the propagator's: the caller
// must not touch it again.
func BufferHLL(global *cardinality.HLL, writerBuf int) *BufferedHLL {
	h := new(BufferedHLL)
	h.start(global, writerBuf, func(pairs []pair) {
		for _, pr := range pairs {
			global.AddHash(pr.a)
		}
	}, func() {
		h.est.Store(math.Float64bits(global.Estimate()))
	})
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
func (w *BufferedHLLWriter) AddHash(x uint64) { (*bufWriter)(w).put(x, 0) }

// AddBatch buffers many byte-slice items; items are hashed here (not
// retained), so the slices may alias pooled request buffers.
func (w *BufferedHLLWriter) AddBatch(items [][]byte) {
	for _, item := range items {
		w.Add(item)
	}
}

// Flush hands off the partial buffer.
func (w *BufferedHLLWriter) Flush() { (*bufWriter)(w).flush() }

// Estimate returns the published cardinality estimate: one atomic
// load, wait-free, stale by at most the unpropagated buffer contents.
func (h *BufferedHLL) Estimate() float64 { return math.Float64frombits(h.est.Load()) }

// P returns the dense precision.
func (h *BufferedHLL) P() uint8 { return h.global.P() }

// Merge folds a peer HLL (same p and seed) into the global sketch via
// the propagator, so it serializes with buffered propagation.
func (h *BufferedHLL) Merge(other *cardinality.HLL) error {
	var err error
	h.onGlobal(func() { err = h.global.Merge(other) })
	return err
}

// Snapshot syncs and returns a private copy of the global sketch.
func (h *BufferedHLL) Snapshot() *cardinality.HLL {
	h.Sync()
	var clone *cardinality.HLL
	h.onGlobal(func() { clone = h.global.Clone() })
	return clone
}

// MarshalBinary serializes a synced snapshot in the standard HLL
// envelope.
func (h *BufferedHLL) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst, written on
// the propagator's turn so that no clone of the registers is needed.
func (h *BufferedHLL) AppendBinary(dst []byte) (out []byte, err error) {
	h.Sync()
	h.onGlobal(func() { out, err = h.global.AppendBinary(dst) })
	return out, err
}

// ---------------------------------------------------------------------
// BufferedBlockedBloom

// BufferedBlockedBloom is a blocked Bloom filter with local-buffer/
// global-propagation ingest: writers buffer (h1, h2) pairs; the
// propagator CAS-ORs them into an AtomicBlockedBloom global it alone
// writes (so the CAS loops never retry under writer contention).
// Contains is wait-free against the global: an item is always found
// once its buffer has propagated, and the staleness is bounded by
// BufferedWriters() × WriterBuffer() items.
type BufferedBlockedBloom struct {
	buffered[*AtomicBlockedBloom]
}

// NewBufferedBlockedBloom creates a buffered blocked filter with at
// least m bits (rounded up to whole 512-bit blocks), k probes per
// item, and the default per-writer buffer.
func NewBufferedBlockedBloom(m uint64, k int, seed uint64) *BufferedBlockedBloom {
	return BufferBlockedBloom(NewAtomicBlockedBloom(m, k, seed), DefaultWriterBuffer)
}

// BufferBlockedBloom puts local-buffer/global-propagation ingest in
// front of an already-built atomic filter, which the propagator alone
// may write from here on.
func BufferBlockedBloom(global *AtomicBlockedBloom, writerBuf int) *BufferedBlockedBloom {
	f := new(BufferedBlockedBloom)
	f.start(global, writerBuf, func(pairs []pair) {
		for _, pr := range pairs {
			global.AddHash(pr.a, pr.b)
		}
	}, nil)
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
func (w *BufferedBlockedBloomWriter) AddHash(h1, h2 uint64) { (*bufWriter)(w).put(h1, h2) }

// AddBatch buffers many byte-slice items; the slices are hashed here,
// not retained.
func (w *BufferedBlockedBloomWriter) AddBatch(items [][]byte) {
	for _, item := range items {
		w.Add(item)
	}
}

// Flush hands off the partial buffer.
func (w *BufferedBlockedBloomWriter) Flush() { (*bufWriter)(w).flush() }

// Contains reports whether the item may be in the set — wait-free, and
// exact (no false negatives) for items whose buffers have propagated.
func (f *BufferedBlockedBloom) Contains(item []byte) bool { return f.global.Contains(item) }

// ContainsString reports membership for a string item.
func (f *BufferedBlockedBloom) ContainsString(item string) bool {
	return f.global.ContainsString(item)
}

// ContainsHash answers a membership query from a pre-computed hash.
func (f *BufferedBlockedBloom) ContainsHash(h1, h2 uint64) bool {
	return f.global.ContainsHash(h1, h2)
}

// N returns the number of propagated insertions.
func (f *BufferedBlockedBloom) N() uint64 { return f.global.N() }

// M returns the number of bits.
func (f *BufferedBlockedBloom) M() uint64 { return f.global.M() }

// K returns the number of bit probes per item.
func (f *BufferedBlockedBloom) K() int { return f.global.K() }

// Merge atomically ORs a hash-compatible plain blocked filter into the
// global; safe concurrently with buffered ingest.
func (f *BufferedBlockedBloom) Merge(other *bloom.BlockedFilter) error {
	return f.global.Merge(other)
}

// Snapshot syncs and copies the bits into a plain BlockedFilter.
func (f *BufferedBlockedBloom) Snapshot() *bloom.BlockedFilter {
	f.Sync()
	return f.global.Snapshot()
}

// MarshalBinary serializes a synced snapshot in the standard
// blocked-Bloom envelope.
func (f *BufferedBlockedBloom) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst.
func (f *BufferedBlockedBloom) AppendBinary(dst []byte) ([]byte, error) {
	f.Sync()
	return f.global.AppendBinary(dst)
}
