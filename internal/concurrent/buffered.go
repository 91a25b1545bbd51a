package concurrent

// Local-buffer/global-propagation ingest in the architecture of "Fast
// Concurrent Data Sketches" (Rinberg et al., PPoPP 2020 / TOPC 2022),
// the design the paper's DataSketches discussion points at for
// multi-writer ingest. A Buffer stands in front of an apply function —
// in sketchd, a plain sketch's batch kernel under the registry's one
// mutex — and knows nothing of the sketch behind it:
//
//   - Each writer owns a bounded local buffer (a handle from Writer(),
//     or one a batch borrows): updates append pre-hashed words to
//     private memory — pure L1 traffic, no synchronization. A flush
//     half holds the two word slices apply takes.
//   - A filled buffer is handed to a background propagator goroutine
//     over a channel; the propagator — the only goroutine that calls
//     apply — passes it on and recycles it to its writer. The writer's
//     two buffers cycling through this handoff are the backpressure
//     that bounds unpropagated state.
//   - Reads are the sketch's own, with relaxed consistency: they may
//     miss items still sitting in local buffers. The staleness is
//     quantified: at most writers × WriterBuffer items are
//     buffered-but-unpropagated at any instant (each writer holds two
//     flush halves of WriterBuffer/2 items each).
//
// Because propagation applies the exact updates the writers put — and
// Count-Min addition, HLL register max, and Bloom bit OR are all
// commutative — a buffered sketch that has been flushed and synced is
// byte-identical to serial ingest of the same multiset (property-tested
// in buffered_test.go over each of the three kernels).
//
// Lifecycle: Close stops the propagator. Items still buffered in
// writer handles at Close are dropped (flush first for an exact
// drain); writers that race a Close never block — every channel wait
// has a quit escape.

import (
	"runtime"
	"sync/atomic"
)

// DefaultWriterBuffer is the per-writer local capacity b (in items):
// two flush halves of b/2. Larger buffers amortize handoff further but
// widen the staleness window; 256 keeps a writer's working set inside
// L1 while making the channel round-trip cost ~1/128 of an update.
const DefaultWriterBuffer = 256

// flushBuf is one flush half: the two word slices apply takes (b stays
// empty for a kernel of one slice), plus the recycle channel of the
// writer that owns it.
type flushBuf struct {
	a, b []uint64
	home chan *flushBuf
}

func newFlushBuf(half int, home chan *flushBuf) *flushBuf {
	return &flushBuf{a: make([]uint64, 0, half), b: make([]uint64, 0, half), home: home}
}

func (f *flushBuf) reset() { f.a, f.b = f.a[:0], f.b[:0] }

// propagator runs the single goroutine that passes handed-off buffers
// to apply.
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

// Writer is one writer's bounded local buffer: the active flush half
// and the recycle channel its two halves cycle through. A writer puts
// one word an item (Put) or two (Put2) — whichever its Buffer's apply
// takes — and never both. Handles are not safe for concurrent use; give
// each goroutine its own.
type Writer struct {
	p    *propagator
	buf  *flushBuf
	home chan *flushBuf
}

// Put appends a one-word update to the local buffer, handing the buffer
// off when it fills. The hot path is an L1 store plus a length compare
// — no atomics, no shared lines, no allocation.
func (w *Writer) Put(a uint64) {
	buf := w.buf
	buf.a = append(buf.a, a)
	if len(buf.a) == cap(buf.a) {
		w.handoff()
	}
}

// Put2 is Put for a kernel that takes two words an item.
func (w *Writer) Put2(a, b uint64) {
	buf := w.buf
	buf.a, buf.b = append(buf.a, a), append(buf.b, b)
	if len(buf.a) == cap(buf.a) {
		w.handoff()
	}
}

// putBatch puts item i as a[i], and b[i] unless b is nil, in order, a
// flush half's free room at a time.
func (w *Writer) putBatch(a, b []uint64) {
	for len(a) > 0 {
		buf := w.buf
		n := min(len(a), cap(buf.a)-len(buf.a))
		buf.a = append(buf.a, a[:n]...)
		if b != nil {
			buf.b = append(buf.b, b[:n]...)
			b = b[n:]
		}
		a = a[n:]
		if len(buf.a) == cap(buf.a) {
			w.handoff()
		}
	}
}

// handoff pushes the active buffer to the propagator and takes the
// recycled one back. The blocking receive is the backpressure bounding
// a writer's unpropagated items to its two flush halves; both waits
// escape through quit so a writer racing a Close never blocks forever
// (its buffered items are dropped, the documented Close contract).
func (w *Writer) handoff() {
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

// Flush hands off a partially filled buffer so its items reach apply
// once the propagator runs it.
func (w *Writer) Flush() {
	if len(w.buf.a) > 0 {
		w.handoff()
	}
}

// Buffer is local-buffer/global-propagation ingest in front of an apply
// function: the propagator, the per-writer capacity and the serving
// pool of writer handles.
type Buffer struct {
	prop      *propagator
	writerBuf int
	pool      chan *Writer
}

// NewBuffer launches the propagator in front of apply, which it alone
// calls, with flush halves of the words writers put. writerBuf is
// rounded down to an even count, minimum 2 (two flush halves). The pool
// holds GOMAXPROCS handles: enough that every concurrent request
// goroutine gets its own, small enough that the staleness bound
// writers × WriterBuffer stays tight.
func NewBuffer(writerBuf int, apply func(a, b []uint64)) *Buffer {
	if writerBuf &^= 1; writerBuf < 2 {
		writerBuf = 2
	}
	return &Buffer{
		prop:      newPropagator(writerBuf/2, apply),
		writerBuf: writerBuf,
		pool:      make(chan *Writer, runtime.GOMAXPROCS(0)),
	}
}

// Writer registers and returns a new writer handle with its two flush
// halves.
func (b *Buffer) Writer() *Writer {
	home := make(chan *flushBuf, 2)
	home <- newFlushBuf(b.prop.half, home)
	b.prop.writers.Add(1)
	return &Writer{p: b.prop, buf: newFlushBuf(b.prop.half, home), home: home}
}

// Add puts a block through a pooled writer handle flushed at block
// end, so the unit the WAL logs is the unit the propagator receives and
// a snapshot (which syncs) holds it. Item i is a[i], and bs[i] unless
// bs is nil.
func (b *Buffer) Add(a, bs []uint64) {
	w := b.checkout()
	w.putBatch(a, bs)
	b.release(w)
}

// checkout takes a handle out of the serving pool, creating one if all
// are in use. The pool is how request-scoped ingest reuses local
// buffers across batches without a handle per request.
func (b *Buffer) checkout() *Writer {
	select {
	case w := <-b.pool:
		return w
	default:
		return b.Writer()
	}
}

// release flushes a pooled handle and returns it, unregistering it
// instead if the pool is already full.
func (b *Buffer) release(w *Writer) {
	w.Flush()
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
// none are during snapshot capture. Sync must not be called while
// holding anything apply waits for.
func (b *Buffer) Sync() {
	var ws []*Writer
	for {
		select {
		case w := <-b.pool:
			w.Flush()
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
func (b *Buffer) WriterBuffer() int { return b.writerBuf }

// BufferedWriters returns the number of live writer handles.
func (b *Buffer) BufferedWriters() int { return int(b.prop.writers.Load()) }

// StalenessBound returns the maximum number of put items a read can
// currently miss: writers × per-writer buffer.
func (b *Buffer) StalenessBound() int { return b.BufferedWriters() * b.writerBuf }

// Close stops the propagator; buffered-but-unflushed writer items are
// dropped. Do not put after Close.
func (b *Buffer) Close() { b.prop.close() }
