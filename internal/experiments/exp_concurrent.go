package experiments

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/hashx"
)

func init() {
	register("E29", "core-local buffered ingest vs shared-atomic under multi-writer load", runE29)
}

// e29Items returns the per-measurement ingest size: 2M pre-hashed
// updates by default, overridable via E29_WRITER_ITEMS for CI smoke
// runs (the scaling *shape* survives smaller sizes; the absolute
// throughput numbers need the default).
func e29Items() int {
	if s := os.Getenv("E29_WRITER_ITEMS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 2_000_000
}

// e29WriterCounts sweeps powers of two up to GOMAXPROCS, always
// including GOMAXPROCS itself so the scaling endpoints are exact.
func e29WriterCounts(max int) []int {
	counts := []int{1}
	for w := 2; w < max; w *= 2 {
		counts = append(counts, w)
	}
	if max > 1 {
		counts = append(counts, max)
	}
	return counts
}

// e29Measure times one multi-writer ingest configuration: setup builds
// a fresh sketch, each writer goroutine runs ingest over its shard
// after a common start barrier, and finish (inside the timed region)
// completes propagation. Wall time is min-of-3 after one warm rep;
// returns Mops/s.
func e29Measure(writers, total int, setup func(), ingest func(w, lo, hi int), finish func()) float64 {
	per := total / writers
	best := math.Inf(1)
	for rep := 0; rep <= 3; rep++ {
		setup()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				ingest(w, w*per, (w+1)*per)
			}(w)
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		if finish != nil {
			finish()
		}
		if el := time.Since(t0).Seconds(); rep > 0 && el < best {
			best = el
		}
	}
	return float64(writers*per) / best / 1e6
}

// lockedBuffer is what sketchd serves in buffered mode: a plain sketch
// behind one mutex, and a Buffer in front whose propagator applies each
// flush half with the sketch's batch kernel under that mutex.
type lockedBuffer[S any] struct {
	mu sync.Mutex
	s  S
	*concurrent.Buffer
}

func newLockedBuffer[S any](s S, kernel func(S, []uint64, []uint64)) *lockedBuffer[S] {
	lb := &lockedBuffer[S]{s: s}
	lb.Buffer = concurrent.NewBuffer(concurrent.DefaultWriterBuffer, func(a, b []uint64) {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		kernel(lb.s, a, b)
	})
	return lb
}

// read runs f on the sketch under the mutex, as a served read does.
func (lb *lockedBuffer[S]) read(f func(S)) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	f(lb.s)
}

// runE29 measures what ROADMAP item 2 names as the current ceiling:
// shared-memory atomic wrappers serialize multi-writer ingest on hot
// cache lines (AtomicCountMin's shared total counter alone is one
// atomic RMW per update from every writer), so throughput flattens —
// or inverts — as writers are added. The local-buffer/global-
// propagation variants (Rinberg et al., "Fast Concurrent Data
// Sketches") give each writer a private bounded buffer and fold
// buffers into the global sketch from one propagator goroutine, so
// writer work is core-local and scaling tracks GOMAXPROCS. They are
// what sketchd's buffered mode serves: the plain kernel under one
// mutex, which the propagator takes once per flush half. The atomic
// and sharded rows are the per-cell and per-shard baselines. The price
// is relaxed reads with a quantified staleness bound, verified here
// and in the property tests, and reads that wait for the lock a flush
// half holds, timed here.
//
// Timed regions include each writer's final flush and a full
// propagation sync, so buffered numbers are end-to-end (no hidden
// deferred work), and all variants consume identical pre-hashed
// updates (hashing is off the clock for both).
func runE29() *Result {
	const width, depth = 2048, 4 // the countmin serving default shape
	total := e29Items()
	maxW := runtime.GOMAXPROCS(0)
	counts := e29WriterCounts(maxW)

	hs := make([]uint64, total)
	for i := range hs {
		hs[i] = hashx.HashUint64(uint64(i), 0xE29)
	}
	newCM := func() *lockedBuffer[*frequency.CountMin] {
		return newLockedBuffer(frequency.NewCountMin(width, depth, 1), (*frequency.CountMin).AddWeightedHashBatch)
	}

	// --- Count-Min: atomic vs buffered across the writer sweep.
	cmTbl := core.NewTable(
		fmt.Sprintf("Count-Min %dx%d multi-writer ingest, %d pre-hashed updates (Mops/s, min of 3)", width, depth, total),
		"writers", "atomic_mops", "buffered_mops", "buffered_vs_atomic")
	var atomicByW, bufferedByW []float64
	for _, w := range counts {
		var ac *concurrent.AtomicCountMin
		amops := e29Measure(w, total,
			func() { ac = concurrent.NewAtomicCountMin(width, depth, 1) },
			func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					ac.AddHash(hs[i], 1)
				}
			}, nil)

		var bc *lockedBuffer[*frequency.CountMin]
		bmops := e29Measure(w, total,
			func() {
				if bc != nil {
					bc.Close()
				}
				bc = newCM()
			},
			func(_, lo, hi int) {
				wr := bc.Writer()
				for i := lo; i < hi; i++ {
					wr.Put2(hs[i], 1)
				}
				wr.Flush()
			},
			func() { bc.Sync() })
		bc.Close()

		atomicByW = append(atomicByW, amops)
		bufferedByW = append(bufferedByW, bmops)
		cmTbl.AddRow(fmt.Sprintf("%d", w), amops, bmops, bmops/amops)
	}
	last := len(counts) - 1
	atomicScale := atomicByW[last] / atomicByW[0]
	bufferedScale := bufferedByW[last] / bufferedByW[0]

	// --- HLL and blocked Bloom: buffered vs the existing serving
	// variant at the sweep endpoints (1 writer and GOMAXPROCS writers).
	endpoints := []int{1, maxW}
	if maxW == 1 {
		endpoints = []int{1}
	}
	famTbl := core.NewTable(
		fmt.Sprintf("per-family scaling endpoints, %d updates (Mops/s; writers=1 vs writers=%d)", total, maxW),
		"variant", "mops_1w", "mops_maxw", "scaling")
	famRow := func(name string, run func(writers int) float64) {
		m1 := run(endpoints[0])
		mN := m1
		if len(endpoints) > 1 {
			mN = run(endpoints[1])
		}
		famTbl.AddRow(name, m1, mN, mN/m1)
	}
	famRow("hll_sharded(p=14)", func(writers int) float64 {
		var s *concurrent.ShardedHLL
		return e29Measure(writers, total,
			func() { s = concurrent.NewShardedHLL(maxW, 14, 1) },
			func(_, lo, hi int) {
				h := s.Handle()
				h.AddHashBatch(hs[lo:hi])
			}, nil)
	})
	// The one word an item the HLL kernel reads. (sketchd's ingest hands
	// the buffer a parsed block of both Murmur3_128 words at once.)
	famRow("hll_buffered(p=14)", func(writers int) float64 {
		var b *lockedBuffer[*cardinality.HLL]
		return e29Measure(writers, total,
			func() {
				if b != nil {
					b.Close()
				}
				b = newLockedBuffer(cardinality.NewHLL(14, 1), func(h *cardinality.HLL, h1s, _ []uint64) { h.AddHashBatch(h1s) })
			},
			func(_, lo, hi int) {
				wr := b.Writer()
				for i := lo; i < hi; i++ {
					wr.Put(hs[i])
				}
				wr.Flush()
			},
			func() { b.Sync() })
	})
	const bloomBits = 1 << 23 // 1 MiB of filter: past L2, cheap to rebuild per rep
	famRow("blockedbloom_atomic(m=2^23)", func(writers int) float64 {
		var f *concurrent.AtomicBlockedBloom
		return e29Measure(writers, total,
			func() { f = concurrent.NewAtomicBlockedBloom(bloomBits, 7, 1) },
			func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					f.AddHash(hs[i], hashx.DeriveH2(hs[i]))
				}
			}, nil)
	})
	famRow("blockedbloom_buffered(m=2^23)", func(writers int) float64 {
		var f *lockedBuffer[*bloom.BlockedFilter]
		return e29Measure(writers, total,
			func() {
				if f != nil {
					f.Close()
				}
				f = newLockedBuffer(bloom.NewBlocked(bloomBits, 7, 1), (*bloom.BlockedFilter).AddHashBatch)
			},
			func(_, lo, hi int) {
				wr := f.Writer()
				for i := lo; i < hi; i++ {
					wr.Put2(hs[i], hashx.DeriveH2(hs[i]))
				}
				wr.Flush()
			},
			func() { f.Sync() })
	})

	// --- Staleness: with W writers ingesting and never flushing, a
	// synced read misses exactly the items still in local buffers —
	// provably at most W × WriterBuffer. After an explicit flush the
	// count is exact.
	stWriters := maxW
	if stWriters < 4 {
		stWriters = 4
	}
	stPer := 50_000
	sc := newCM()
	n := func() (n uint64) {
		sc.read(func(c *frequency.CountMin) { n = c.N() })
		return n
	}
	var wg sync.WaitGroup
	handles := make([]*concurrent.Writer, stWriters)
	for i := range handles {
		handles[i] = sc.Writer()
	}
	for _, wr := range handles {
		wg.Add(1)
		go func(wr *concurrent.Writer) {
			defer wg.Done()
			for i := 0; i < stPer; i++ {
				wr.Put2(hs[i%len(hs)], 1)
			}
		}(wr)
	}
	wg.Wait()
	sc.Sync() // propagation barrier; unflushed writer buffers stay local
	stTotal := uint64(stWriters * stPer)
	missing := stTotal - n()
	bound := uint64(sc.StalenessBound())
	for _, wr := range handles {
		wr.Flush()
	}
	sc.Sync()
	exactN := n()
	sc.Close()

	idle, busy := e29PointReads(newCM, hs, 0), e29PointReads(newCM, hs, stWriters)

	stTbl := core.NewTable(
		fmt.Sprintf("reads mid-ingest: staleness with %d writers x %d-item buffers, no flush; point-read latency, %d reads", stWriters, sc.WriterBuffer(), e29Reads),
		"metric", "value")
	stTbl.AddRow("items ingested", float64(stTotal))
	stTbl.AddRow("visible before flush", float64(stTotal-missing))
	stTbl.AddRow("missing (buffered locally)", float64(missing))
	stTbl.AddRow("bound writers x buffer", float64(bound))
	stTbl.AddRow("visible after flush+sync", float64(exactN))
	stTbl.AddRow("point read p50 us, no writers", idle[0])
	stTbl.AddRow("point read p99 us, no writers", idle[1])
	stTbl.AddRow(fmt.Sprintf("point read p50 us, %d writers", stWriters), busy[0])
	stTbl.AddRow(fmt.Sprintf("point read p99 us, %d writers", stWriters), busy[1])

	// The scaling bars are about ≥4 cores; under that they are not
	// evaluated rather than met.
	scaleBar := func(ok bool) string {
		if maxW < 4 {
			return fmt.Sprintf("not evaluated (GOMAXPROCS=%d < 4)", maxW)
		}
		return metStr(ok)
	}
	notes := []string{
		fmt.Sprintf("buffered Count-Min scaling 1→%d writers: %.2fx (acceptance ≥3x on ≥4 cores: %s); atomic: %.2fx (expected <1.5x: %s)",
			maxW, bufferedScale, scaleBar(bufferedScale >= 3), atomicScale, scaleBar(atomicScale < 1.5)),
		fmt.Sprintf("mid-ingest staleness %d items ≤ bound %d (%s); exact after flush+sync: %s",
			missing, bound, metStr(missing <= bound), metStr(exactN == stTotal)),
		"buffered timings include final flush and full propagation sync — no deferred work is hidden off the clock",
	}
	if maxW < 4 {
		notes = append(notes, fmt.Sprintf("scaling acceptance qualified: GOMAXPROCS=%d on this host, under the 4 cores the scaling bars need, so the sweep shows per-update overhead and at most %d-way contention relief, not the scaling claim; run on a ≥4-core machine (or the CI scaling-smoke artifact) for it", maxW, maxW))
	}
	notes = append(notes, fmt.Sprintf("point reads under %d writers: p50 %.2f us, p99 %.2f us (no writers: %.2f, %.2f); a read waits for at most one flush half (%d items) under the lock, and for the scheduler when writers outnumber cores",
		stWriters, busy[0], busy[1], idle[0], idle[1], concurrent.DefaultWriterBuffer/2))
	return &Result{
		ID:     "E29",
		Title:  "core-local buffered ingest vs shared-atomic under multi-writer load",
		Claim:  "the paper's production pathway — sketches absorbing heavy multi-writer traffic — needs ingest that scales with cores: local-buffer/global-propagation writers (Fast Concurrent Data Sketches) keep updates core-local and scale near-linearly where shared-memory atomics serialize on hot cache lines, at the price of a quantified, bounded read staleness",
		Tables: []*core.Table{cmTbl, famTbl, stTbl},
		Notes:  notes,
	}
}

// e29Reads is how many point reads e29PointReads times.
const e29Reads = 2000

// e29PointReads times e29Reads Count-Min point reads — the lock, one
// estimate, the unlock, as a served query takes them — on a buffered
// sketch that `writers` goroutines ingest into without pause until the
// reads are done, and returns their p50 and p99 in microseconds.
func e29PointReads(newCM func() *lockedBuffer[*frequency.CountMin], hs []uint64, writers int) [2]float64 {
	c := newCM()
	defer c.Close()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := c.Writer()
			for i := w; !stop.Load(); i++ {
				wr.Put2(hs[i%len(hs)], 1)
			}
		}(w)
	}
	key := []byte("flow42")
	lat := make([]float64, e29Reads)
	for i := range lat {
		t0 := time.Now()
		c.read(func(c *frequency.CountMin) { c.Estimate(key) })
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		runtime.Gosched() // let the writers and the propagator run between reads
	}
	stop.Store(true)
	wg.Wait()
	slices.Sort(lat)
	return [2]float64{lat[len(lat)/2], lat[len(lat)*99/100]}
}
