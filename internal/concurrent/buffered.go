package concurrent

// Local-buffer/global-propagation sketches in the architecture of
// "Fast Concurrent Data Sketches" (Rinberg et al., PPoPP 2020 / TOPC
// 2022), the design the paper's DataSketches discussion points at for
// multi-writer ingest. The atomic wrappers in this package keep every
// writer on the same shared memory, so under many cores the hot cache
// lines (and the shared n counter) ping-pong between sockets and
// throughput flattens. Here writers never touch shared sketch state:
//
//   - Each writer owns a bounded local buffer (a writer handle,
//     obtained via Writer()): updates append pre-hashed items to
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

// bufferedServing is the process-wide serving-mode switch consulted by
// the registry: when set, families with a buffered variant serve it
// instead of the atomic one. cmd/sketchd sets it from
// -concurrent-ingest before recovery or traffic.
var bufferedServing atomic.Bool

// SetBufferedServing selects (true) or deselects (false) the
// local-buffer/global-propagation serving variants for new server
// entries. Set before creating or recovering entries; flipping it
// midway only affects sketches created afterwards.
func SetBufferedServing(on bool) { bufferedServing.Store(on) }

// BufferedServing reports whether buffered serving variants are
// selected.
func BufferedServing() bool { return bufferedServing.Load() }

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
	if writerBuf < 2 {
		writerBuf = 2
	}
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
			// refresh read state, run the op, then refresh again —
			// the op itself may mutate the global (Merge on a
			// quiescent sketch sees no later flush to publish for it).
			p.drainBacklog(-1)
			p.forcePublish()
			op()
			p.forcePublish()
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
// and publish, blocking until it completes. Returns false if the
// propagator has been closed (op did not run).
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
// exit; the wait gives callers a happens-before edge to every write
// the propagator made to the global sketch.
func (p *propagator) close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
	}
	<-p.done
}

// bufWriter is the family-independent half of a writer handle: the
// active flush half plus the recycle channel its two halves cycle
// through.
type bufWriter struct {
	p    *propagator
	buf  *flushBuf
	home chan *flushBuf
}

func (p *propagator) newWriter() bufWriter {
	home := make(chan *flushBuf, 2)
	home <- &flushBuf{pairs: make([]pair, 0, p.half), home: home}
	p.writers.Add(1)
	return bufWriter{
		p:    p,
		buf:  &flushBuf{pairs: make([]pair, 0, p.half), home: home},
		home: home,
	}
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

// poolSize is the serving-path writer pool capacity: enough handles
// that GOMAXPROCS concurrent request goroutines each get their own,
// small enough that the staleness bound writers × WriterBuffer stays
// tight.
func poolSize() int { return runtime.GOMAXPROCS(0) }

// ---------------------------------------------------------------------
// BufferedCountMin

// BufferedCountMin is a Count-Min sketch with local-buffer/global-
// propagation ingest. Writers obtain handles (Writer for owned use,
// PooledWriter for request-scoped serving use) and append pre-hashed
// (hash, weight) pairs to private buffers; the propagator folds filled
// buffers into an AtomicCountMin global it alone writes, so the
// atomic adds never contend. Reads (Estimate, N) are wait-free atomic
// loads against the global and may lag ingest by at most
// BufferedWriters() × WriterBuffer() items.
//
// Addressing matches derived-mode frequency.CountMin exactly (equal
// width, depth, seed ⇒ identical buckets), so Merge and Snapshot
// exchanges with plain sketches stay exact and flushed+synced state is
// byte-identical to serial ingest.
type BufferedCountMin struct {
	global    *AtomicCountMin
	prop      *propagator
	writerBuf int
	seed      uint64
	pool      chan *BufferedCountMinWriter
}

// NewBufferedCountMin creates a buffered Count-Min sketch with the
// default per-writer buffer.
func NewBufferedCountMin(width, depth int, seed uint64) *BufferedCountMin {
	return NewBufferedCountMinOpts(width, depth, seed, false, DefaultWriterBuffer)
}

// NewBufferedCountMinFused creates a buffered Count-Min whose global
// sketch uses the fused cache-line layout.
func NewBufferedCountMinFused(width, depth int, seed uint64) *BufferedCountMin {
	return NewBufferedCountMinOpts(width, depth, seed, true, DefaultWriterBuffer)
}

// NewBufferedCountMinOpts creates a buffered Count-Min with an
// explicit layout and per-writer buffer capacity (rounded down to an
// even count, minimum 2).
func NewBufferedCountMinOpts(width, depth int, seed uint64, fused bool, writerBuf int) *BufferedCountMin {
	var global *AtomicCountMin
	if fused {
		global = NewAtomicCountMinFused(width, depth, seed)
	} else {
		global = NewAtomicCountMin(width, depth, seed)
	}
	c := &BufferedCountMin{
		global:    global,
		writerBuf: writerBuf &^ 1,
		seed:      seed,
		pool:      make(chan *BufferedCountMinWriter, poolSize()),
	}
	if c.writerBuf < 2 {
		c.writerBuf = 2
	}
	c.prop = newPropagator(c.writerBuf, func(pairs []pair) {
		for _, pr := range pairs {
			global.AddHash(pr.a, pr.b)
		}
	}, nil)
	return c
}

// BufferedCountMinWriter is one writer's bounded local buffer. Handles
// are not safe for concurrent use; give each goroutine its own.
type BufferedCountMinWriter struct {
	w    bufWriter
	seed uint64
}

// Writer registers and returns a new writer handle.
func (c *BufferedCountMin) Writer() *BufferedCountMinWriter {
	return &BufferedCountMinWriter{w: c.prop.newWriter(), seed: c.seed}
}

// PooledWriter checks a handle out of the serving pool (creating one
// if all are in use); pair with ReleaseWriter. The pool is how
// request-scoped ingest reuses local buffers across batches without a
// handle per request.
func (c *BufferedCountMin) PooledWriter() *BufferedCountMinWriter {
	select {
	case w := <-c.pool:
		return w
	default:
		return c.Writer()
	}
}

// ReleaseWriter returns a pooled handle, flushing and unregistering it
// if the pool is already full.
func (c *BufferedCountMin) ReleaseWriter(w *BufferedCountMinWriter) {
	select {
	case c.pool <- w:
	default:
		w.Flush()
		c.prop.writers.Add(-1)
	}
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
func (w *BufferedCountMinWriter) AddHash(h, weight uint64) { w.w.put(h, weight) }

// Flush hands off the partial buffer so its items reach the global
// sketch on the next propagation round.
func (w *BufferedCountMinWriter) Flush() { w.w.flush() }

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

// Seed returns the hash seed.
func (c *BufferedCountMin) Seed() uint64 { return c.seed }

// Fused reports whether the global uses the fused cache-line layout.
func (c *BufferedCountMin) Fused() bool { return c.global.Fused() }

// SizeBytes returns the global counter storage size.
func (c *BufferedCountMin) SizeBytes() int { return c.global.SizeBytes() }

// WriterBuffer returns the per-writer local capacity b.
func (c *BufferedCountMin) WriterBuffer() int { return c.writerBuf }

// BufferedWriters returns the number of live writer handles.
func (c *BufferedCountMin) BufferedWriters() int { return int(c.prop.writers.Load()) }

// StalenessBound returns the maximum number of ingested items a read
// can currently miss: writers × per-writer buffer.
func (c *BufferedCountMin) StalenessBound() int { return c.BufferedWriters() * c.writerBuf }

// Propagated returns the number of updates folded into the global
// sketch — the read-visible epoch.
func (c *BufferedCountMin) Propagated() uint64 { return c.prop.propagated.Load() }

// Sync flushes every idle pooled writer and waits for the propagator
// to apply all buffers handed off before the call. Handles checked out
// by concurrent goroutines (or owned Writer handles) are their
// holders' responsibility; the server's per-sketch WAL lock guarantees
// none are during snapshot capture.
func (c *BufferedCountMin) Sync() {
	var ws []*BufferedCountMinWriter
	for {
		select {
		case w := <-c.pool:
			w.Flush()
			ws = append(ws, w)
			continue
		default:
		}
		break
	}
	c.prop.do(func() {})
	for _, w := range ws {
		c.ReleaseWriter(w)
	}
}

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
func (c *BufferedCountMin) MarshalBinary() ([]byte, error) {
	c.Sync()
	return c.global.MarshalBinary()
}

// Close stops the propagator; buffered-but-unflushed writer items are
// dropped. Do not ingest after Close.
func (c *BufferedCountMin) Close() { c.prop.close() }

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
	global    *cardinality.HLL // owned by the propagator goroutine
	prop      *propagator
	est       atomic.Uint64 // Float64bits of the published estimate
	p         uint8
	seed      uint64
	writerBuf int
	pool      chan *BufferedHLLWriter
}

// NewBufferedHLL creates a buffered HLL with dense precision p and the
// default per-writer buffer.
func NewBufferedHLL(p uint8, seed uint64) *BufferedHLL {
	return NewBufferedHLLBuf(p, seed, DefaultWriterBuffer)
}

// NewBufferedHLLBuf creates a buffered HLL with an explicit per-writer
// buffer capacity.
func NewBufferedHLLBuf(p uint8, seed uint64, writerBuf int) *BufferedHLL {
	global := cardinality.NewHLL(p, seed)
	h := &BufferedHLL{
		global:    global,
		p:         p,
		seed:      seed,
		writerBuf: writerBuf &^ 1,
		pool:      make(chan *BufferedHLLWriter, poolSize()),
	}
	if h.writerBuf < 2 {
		h.writerBuf = 2
	}
	h.prop = newPropagator(h.writerBuf, func(pairs []pair) {
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
type BufferedHLLWriter struct {
	w    bufWriter
	seed uint64
}

// Writer registers and returns a new writer handle.
func (h *BufferedHLL) Writer() *BufferedHLLWriter {
	return &BufferedHLLWriter{w: h.prop.newWriter(), seed: h.seed}
}

// PooledWriter checks a handle out of the serving pool; pair with
// ReleaseWriter.
func (h *BufferedHLL) PooledWriter() *BufferedHLLWriter {
	select {
	case w := <-h.pool:
		return w
	default:
		return h.Writer()
	}
}

// ReleaseWriter returns a pooled handle, flushing and unregistering it
// if the pool is full.
func (h *BufferedHLL) ReleaseWriter(w *BufferedHLLWriter) {
	select {
	case h.pool <- w:
	default:
		w.Flush()
		h.prop.writers.Add(-1)
	}
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
func (w *BufferedHLLWriter) AddHash(x uint64) { w.w.put(x, 0) }

// AddBatch buffers many byte-slice items; items are hashed here (not
// retained), so the slices may alias pooled request buffers.
func (w *BufferedHLLWriter) AddBatch(items [][]byte) {
	for _, item := range items {
		w.Add(item)
	}
}

// Flush hands off the partial buffer.
func (w *BufferedHLLWriter) Flush() { w.w.flush() }

// Estimate returns the published cardinality estimate: one atomic
// load, wait-free, stale by at most the unpropagated buffer contents.
func (h *BufferedHLL) Estimate() float64 { return math.Float64frombits(h.est.Load()) }

// P returns the dense precision.
func (h *BufferedHLL) P() uint8 { return h.p }

// Seed returns the hash seed.
func (h *BufferedHLL) Seed() uint64 { return h.seed }

// SizeBytes returns the global register storage size.
func (h *BufferedHLL) SizeBytes() int { return h.global.SizeBytes() }

// WriterBuffer returns the per-writer local capacity.
func (h *BufferedHLL) WriterBuffer() int { return h.writerBuf }

// BufferedWriters returns the number of live writer handles.
func (h *BufferedHLL) BufferedWriters() int { return int(h.prop.writers.Load()) }

// StalenessBound returns the maximum number of ingested items a read
// can currently miss.
func (h *BufferedHLL) StalenessBound() int { return h.BufferedWriters() * h.writerBuf }

// Propagated returns the number of updates folded into the global
// sketch.
func (h *BufferedHLL) Propagated() uint64 { return h.prop.propagated.Load() }

// Sync flushes idle pooled writers and waits for propagation; see
// BufferedCountMin.Sync for the contract.
func (h *BufferedHLL) Sync() {
	var ws []*BufferedHLLWriter
	for {
		select {
		case w := <-h.pool:
			w.Flush()
			ws = append(ws, w)
			continue
		default:
		}
		break
	}
	h.prop.do(func() {})
	for _, w := range ws {
		h.ReleaseWriter(w)
	}
}

// onGlobal runs op against the propagator-owned global sketch: on the
// propagator goroutine while it lives, directly after it has exited
// (the done-channel wait establishes the happens-before edge).
func (h *BufferedHLL) onGlobal(op func()) {
	if !h.prop.do(op) {
		<-h.prop.done
		op()
	}
}

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
func (h *BufferedHLL) MarshalBinary() ([]byte, error) {
	return h.Snapshot().MarshalBinary()
}

// Close stops the propagator; unflushed writer items are dropped.
func (h *BufferedHLL) Close() { h.prop.close() }

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
	global    *AtomicBlockedBloom
	prop      *propagator
	seed      uint64
	writerBuf int
	pool      chan *BufferedBlockedBloomWriter
}

// NewBufferedBlockedBloom creates a buffered blocked filter with at
// least m bits (rounded up to whole 512-bit blocks), k probes per
// item, and the default per-writer buffer.
func NewBufferedBlockedBloom(m uint64, k int, seed uint64) *BufferedBlockedBloom {
	return NewBufferedBlockedBloomBuf(m, k, seed, DefaultWriterBuffer)
}

// NewBufferedBlockedBloomBuf creates a buffered blocked filter with an
// explicit per-writer buffer capacity.
func NewBufferedBlockedBloomBuf(m uint64, k int, seed uint64, writerBuf int) *BufferedBlockedBloom {
	global := NewAtomicBlockedBloom(m, k, seed)
	f := &BufferedBlockedBloom{
		global:    global,
		seed:      seed,
		writerBuf: writerBuf &^ 1,
		pool:      make(chan *BufferedBlockedBloomWriter, poolSize()),
	}
	if f.writerBuf < 2 {
		f.writerBuf = 2
	}
	f.prop = newPropagator(f.writerBuf, func(pairs []pair) {
		for _, pr := range pairs {
			global.AddHash(pr.a, pr.b)
		}
	}, nil)
	return f
}

// BufferedBlockedBloomWriter is one writer's bounded local buffer; not
// safe for concurrent use.
type BufferedBlockedBloomWriter struct {
	w    bufWriter
	seed uint64
}

// Writer registers and returns a new writer handle.
func (f *BufferedBlockedBloom) Writer() *BufferedBlockedBloomWriter {
	return &BufferedBlockedBloomWriter{w: f.prop.newWriter(), seed: f.seed}
}

// PooledWriter checks a handle out of the serving pool; pair with
// ReleaseWriter.
func (f *BufferedBlockedBloom) PooledWriter() *BufferedBlockedBloomWriter {
	select {
	case w := <-f.pool:
		return w
	default:
		return f.Writer()
	}
}

// ReleaseWriter returns a pooled handle, flushing and unregistering it
// if the pool is full.
func (f *BufferedBlockedBloom) ReleaseWriter(w *BufferedBlockedBloomWriter) {
	select {
	case f.pool <- w:
	default:
		w.Flush()
		f.prop.writers.Add(-1)
	}
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
func (w *BufferedBlockedBloomWriter) AddHash(h1, h2 uint64) { w.w.put(h1, h2) }

// AddBatch buffers many byte-slice items; the slices are hashed here,
// not retained.
func (w *BufferedBlockedBloomWriter) AddBatch(items [][]byte) {
	for _, item := range items {
		w.Add(item)
	}
}

// Flush hands off the partial buffer.
func (w *BufferedBlockedBloomWriter) Flush() { w.w.flush() }

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

// Seed returns the hash seed.
func (f *BufferedBlockedBloom) Seed() uint64 { return f.seed }

// SizeBytes returns the bit-array storage size.
func (f *BufferedBlockedBloom) SizeBytes() int { return f.global.SizeBytes() }

// WriterBuffer returns the per-writer local capacity.
func (f *BufferedBlockedBloom) WriterBuffer() int { return f.writerBuf }

// BufferedWriters returns the number of live writer handles.
func (f *BufferedBlockedBloom) BufferedWriters() int { return int(f.prop.writers.Load()) }

// StalenessBound returns the maximum number of ingested items a read
// can currently miss.
func (f *BufferedBlockedBloom) StalenessBound() int { return f.BufferedWriters() * f.writerBuf }

// Propagated returns the number of updates folded into the global
// filter.
func (f *BufferedBlockedBloom) Propagated() uint64 { return f.prop.propagated.Load() }

// Sync flushes idle pooled writers and waits for propagation; see
// BufferedCountMin.Sync for the contract.
func (f *BufferedBlockedBloom) Sync() {
	var ws []*BufferedBlockedBloomWriter
	for {
		select {
		case w := <-f.pool:
			w.Flush()
			ws = append(ws, w)
			continue
		default:
		}
		break
	}
	f.prop.do(func() {})
	for _, w := range ws {
		f.ReleaseWriter(w)
	}
}

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
func (f *BufferedBlockedBloom) MarshalBinary() ([]byte, error) {
	f.Sync()
	return f.global.MarshalBinary()
}

// Close stops the propagator; unflushed writer items are dropped.
func (f *BufferedBlockedBloom) Close() { f.prop.close() }
