// Package concurrent provides thread-safe sketch wrappers in the
// spirit of the Yahoo!/Apache DataSketches "fast concurrent data
// sketches" work the paper cites (Rinberg et al., TOPC 2022): the
// project "emphasised the need for concurrency and mergability of
// sketches". Two designs are provided:
//
//   - ShardedHLL: per-goroutine HLL shards that are merged on read.
//     Updates are entirely uncontended (the DataSketches approach of
//     thread-local buffers); the first read after a write pays one
//     word-wise merge per shard.
//   - AtomicCountMin: a Count-Min sketch whose counters are updated
//     with atomic adds — wait-free updates, exact reads, no locks.
//
// Experiment E7a measures the update-throughput scaling of both
// against a mutex-guarded baseline.
package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/hashx"
)

// ShardedHLL is a concurrent HyperLogLog: each shard is owned by the
// goroutines that hash to it (striped by a cheap counter), and reads
// merge all shards into a cached merged view. The cache is keyed by an
// epoch — the sum of per-shard write counters — so only the first read
// after a write rebuilds it: a copy of the first shard, one
// cardinality.HLL.Merge per further shard, taken under that shard's
// lock straight into the new view, then one Estimate. Under mixed
// traffic nearly every read is such a read, so what a read costs is
// those word kernels: at p = 14 over 2 shards ≈ 30 µs and one 12 KB
// view (ShardedHLLEstimateUnderWrites in the hot-path suite), 3 % of a
// serving shard's CPU on the benchmark's cluster_ingest mix, where one
// request in eight is such a read. With per-register loops and a clone
// per shard it was 190 µs and 26 %.
type ShardedHLL struct {
	shards []shardedHLLSlot
	p      uint8
	seed   uint64
	next   atomic.Uint64

	// cached merged view, rebuilt when the epoch moves. cacheEpoch is
	// read before the rebuild merges the shards, so writes that race
	// with a rebuild land in a later epoch and invalidate it again —
	// the cache can be stale-marked but never wrong.
	cacheMu    sync.Mutex
	cache      *cardinality.HLL
	cacheEst   float64
	cacheEpoch uint64
	cacheValid bool
}

type shardedHLLSlot struct {
	mu      sync.Mutex
	hll     *cardinality.HLL
	version atomic.Uint64 // writes to this shard; bumped inside the lock
	_       [24]byte      // pad to a cache line to avoid false sharing of locks
}

// NewShardedHLL creates a concurrent HLL with the given number of
// shards (use ~GOMAXPROCS) and dense precision p.
func NewShardedHLL(shards int, p uint8, seed uint64) *ShardedHLL {
	if shards < 1 {
		panic("concurrent: shards must be >= 1")
	}
	s := &ShardedHLL{shards: make([]shardedHLLSlot, shards), p: p, seed: seed}
	for i := range s.shards {
		s.shards[i].hll = cardinality.NewHLL(p, seed)
	}
	return s
}

// Handle returns a striped writer bound to one shard. Each goroutine
// should obtain its own handle; updates through a handle contend only
// with other holders of the same shard. A handle is its shard under
// the writer's name, so taking one per request allocates nothing.
func (s *ShardedHLL) Handle() *HLLHandle {
	return (*HLLHandle)(&s.shards[(s.next.Add(1)-1)%uint64(len(s.shards))])
}

// AddBatch is cardinality.HLL's batch entry point on the sharded
// sketch: the batch goes through one handle, Handle().AddBatch.
func (s *ShardedHLL) AddBatch(items [][]byte) { s.Handle().AddBatch(items) }

// HLLHandle is a shard-bound writer.
type HLLHandle shardedHLLSlot

// AddUint64 inserts an item through the handle.
func (h *HLLHandle) AddUint64(v uint64) {
	h.mu.Lock()
	h.hll.AddUint64(v)
	h.version.Add(1)
	h.mu.Unlock()
}

// Add inserts a byte-slice item through the handle.
func (h *HLLHandle) Add(item []byte) {
	h.mu.Lock()
	h.hll.Add(item)
	h.version.Add(1)
	h.mu.Unlock()
}

// AddBatchUint64 inserts many items under one lock acquisition; the
// serving layer uses it so a network batch costs one lock round-trip,
// not one per item.
func (h *HLLHandle) AddBatchUint64(vs []uint64) {
	h.mu.Lock()
	for _, v := range vs {
		h.hll.AddUint64(v)
	}
	h.version.Add(uint64(len(vs)))
	h.mu.Unlock()
}

// AddBatch inserts many byte-slice items in fixed-size chunks: each
// chunk is fully hashed *outside* the lock (pure ALU work other
// goroutines never wait on), then folded in under one acquisition via
// the two-phase AddHashBatch. Items may be reused by the caller after
// the call returns; state is identical to per-item Add.
func (h *HLLHandle) AddBatch(items [][]byte) {
	var hs [atomicIngestChunk]uint64
	seed := h.hll.Seed()
	for len(items) > 0 {
		c := len(items)
		if c > atomicIngestChunk {
			c = atomicIngestChunk
		}
		for i, item := range items[:c] {
			hs[i], _ = hashx.Murmur3_128(item, seed)
		}
		h.AddHashBatch(hs[:c])
		items = items[c:]
	}
}

// AddHashBatch folds many pre-hashed values in under one lock
// acquisition. Hash-once pipelines use it so each item is hashed
// exactly once, outside the lock, and the critical section is pure
// register updates. State is identical to AddBatch on the pre-images.
func (h *HLLHandle) AddHashBatch(hs []uint64) {
	h.mu.Lock()
	h.hll.AddHashBatch(hs)
	h.version.Add(uint64(len(hs)))
	h.mu.Unlock()
}

// epoch returns a value that strictly increases with every write to any
// shard. Equal epochs imply an unchanged union.
func (s *ShardedHLL) epoch() uint64 {
	var e uint64
	for i := range s.shards {
		e += s.shards[i].version.Load()
	}
	return e
}

// mergeShards builds a fresh merged sketch from all shards: a copy of
// the first, then every other merged straight in, each under its own
// lock (a word-wise merge holds it little longer than a copy would).
// This is the uncached read path; BenchmarkShardedHLLEstimate measures
// what the epoch cache saves over calling this on every read.
func (s *ShardedHLL) mergeShards() *cardinality.HLL {
	first := &s.shards[0]
	first.mu.Lock()
	merged := first.hll.Clone()
	first.mu.Unlock()
	for i := 1; i < len(s.shards); i++ {
		s.shards[i].mu.Lock()
		err := merged.Merge(s.shards[i].hll)
		s.shards[i].mu.Unlock()
		if err != nil {
			panic(err) // all shards share p and seed by construction
		}
	}
	return merged
}

// mergedView returns the cached merged sketch, rebuilding it only if a
// write moved the epoch since the last rebuild. Callers must not
// mutate the result; Snapshot clones it for them.
func (s *ShardedHLL) mergedView() (*cardinality.HLL, float64) {
	e := s.epoch()
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if !s.cacheValid || s.cacheEpoch != e {
		s.cache = s.mergeShards()
		s.cacheEst = s.cache.Estimate()
		s.cacheEpoch = e
		s.cacheValid = true
	}
	return s.cache, s.cacheEst
}

// Estimate returns the cardinality estimate of the union of all
// shards. Because HLL merge is the register-wise max, the result is
// exactly the estimate a single sketch would have produced for the
// union of all shards' inputs. Repeated reads between writes are
// served from the epoch cache in O(shards).
func (s *ShardedHLL) Estimate() float64 {
	_, est := s.mergedView()
	return est
}

// Snapshot returns a private copy of the merged sketch, suitable for
// serialization or further merging by the caller.
func (s *ShardedHLL) Snapshot() *cardinality.HLL {
	merged, _ := s.mergedView()
	return merged.Clone()
}

// Merge folds a peer's HLL (same p and seed) into the sketch. The peer
// lands in one shard, so subsequent reads union it like any other
// shard's contents.
func (s *ShardedHLL) Merge(other *cardinality.HLL) error {
	slot := &s.shards[0]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if err := slot.hll.Merge(other); err != nil {
		return err
	}
	slot.version.Add(1)
	return nil
}

// MarshalBinary serializes the merged view in the standard HLL
// envelope, so any HLL (sharded or not) can absorb it.
func (s *ShardedHLL) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst.
func (s *ShardedHLL) AppendBinary(dst []byte) ([]byte, error) {
	merged, _ := s.mergedView()
	return merged.AppendBinary(dst)
}

// P returns the dense precision shared by all shards.
func (s *ShardedHLL) P() uint8 { return s.p }

// SizeBytes returns the total register storage across shards.
func (s *ShardedHLL) SizeBytes() int {
	total := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		total += s.shards[i].hll.SizeBytes()
		s.shards[i].mu.Unlock()
	}
	return total
}

// AtomicCountMin is a Count-Min sketch with lock-free atomic counter
// updates. Point queries read the counters atomically; under concurrent
// writes an estimate is a linearizable snapshot of each counter (not of
// the whole row set), which preserves the never-undercount property for
// items whose updates happened-before the query.
//
// It holds a frequency.Layout over one flat table of atomics, so it
// addresses exactly the cells a plain frequency.CountMin of the same
// layout does — which is what makes Merge and Snapshot exchanges with
// the plain sketch exact. Its cell operation is the atomic add. sketchd
// serves it only as a buffered Count-Min's global: a default-mode
// Count-Min is the plain sketch behind the registry's lock, which costs
// less CPU a line than four atomic adds (DESIGN.md §5.1).
type AtomicCountMin struct {
	layout frequency.Layout
	cells  []atomic.Uint64
	n      atomic.Uint64
}

// NewAtomicCountMin creates a width×depth atomic Count-Min sketch in
// the Derived layout: the shorthand for NewAtomicCountMinLayout.
func NewAtomicCountMin(width, depth int, seed uint64) *AtomicCountMin {
	return NewAtomicCountMinLayout(frequency.Layout{Width: width, Depth: depth, Seed: seed})
}

// NewAtomicCountMinLayout creates an empty atomic sketch over l.
func NewAtomicCountMinLayout(l frequency.Layout) *AtomicCountMin {
	l, err := l.Build()
	if err != nil {
		panic("concurrent: " + err.Error())
	}
	return &AtomicCountMin{layout: l, cells: make([]atomic.Uint64, l.Len())}
}

// AddUint64 adds weight to an integer item's count. Safe for concurrent
// use without external locking.
func (c *AtomicCountMin) AddUint64(item, weight uint64) {
	c.AddHash(hashx.HashUint64(item, c.layout.Seed), weight)
}

// Add adds weight occurrences of a byte-slice item: one hash pass, all
// row positions derived from it. Equivalent to
// AddHash(hashx.XXHash64(item, seed), weight), the same item→cell map
// as frequency.CountMin.
func (c *AtomicCountMin) Add(item []byte, weight uint64) {
	c.AddHash(hashx.XXHash64(item, c.layout.Seed), weight)
}

// AddString adds weight occurrences of a string item without copying
// or allocating.
func (c *AtomicCountMin) AddString(item string, weight uint64) {
	c.AddHash(hashx.XXHash64String(item, c.layout.Seed), weight)
}

// AddHash adds weight at the cells frequency.CountMin.AddHash would
// touch. Wait-free: one atomic add per row.
func (c *AtomicCountMin) AddHash(h, weight uint64) {
	var buf [frequency.StackDepth]uint32
	cells := c.cells
	for _, j := range c.layout.Cells(h, buf[:]) {
		cells[j].Add(weight)
	}
	c.n.Add(weight)
}

// atomicIngestChunk is how many items a batch entry point hashes
// outside any lock before folding them in; see the frequency package's
// ingestChunk.
const atomicIngestChunk = 256

// unitWeights are the weights of a weight-1 chunk.
var unitWeights = func() (u [atomicIngestChunk]uint64) {
	for i := range u {
		u[i] = 1
	}
	return u
}()

// AddHashBatch folds many pre-hashed items in, each with weight 1 —
// the hash-once batch entry point for ingest pipelines: the weight-1
// call of AddWeightedHashBatch, a chunk at a time.
func (c *AtomicCountMin) AddHashBatch(hs []uint64) {
	for len(hs) > 0 {
		n := min(len(hs), len(unitWeights))
		c.AddWeightedHashBatch(hs[:n], unitWeights[:n])
		hs = hs[n:]
	}
}

// AddWeightedHashBatch folds a block of pre-hashed items in, hs[i] with
// weight ws[i], in the two phases of Layout.CellsBatch. Atomic adds
// commute, so state is identical to calling AddHash per item; what
// differs is the shared total, added once per chunk rather than once
// per item — with two writers on one sketch a per-item n.Add is one
// cache line bounced between cores for every item.
func (c *AtomicCountMin) AddWeightedHashBatch(hs, ws []uint64) {
	var buf [frequency.BatchCells]uint32
	cells := c.cells
	for len(hs) > 0 {
		idx, n := c.layout.CellsBatch(hs, buf[:])
		w := ws[:n]
		if c.layout.RowMajor() {
			for ; len(idx) > 0; idx = idx[n:] {
				for i, j := range idx[:n] {
					cells[j].Add(w[i])
				}
			}
		} else {
			for d := len(idx) / n; len(idx) > 0; idx, w = idx[d:], w[1:] {
				for _, j := range idx[:d] {
					cells[j].Add(w[0])
				}
			}
		}
		var total uint64
		for _, wi := range ws[:n] {
			total += wi
		}
		c.n.Add(total)
		hs, ws = hs[n:], ws[n:]
	}
}

// Estimate returns the point-query estimate for a byte-slice item,
// probing exactly the buckets Add touched for the same item.
func (c *AtomicCountMin) Estimate(item []byte) uint64 {
	return c.estimateHash(hashx.XXHash64(item, c.layout.Seed))
}

// EstimateUint64 returns the point-query estimate for an integer item.
func (c *AtomicCountMin) EstimateUint64(item uint64) uint64 {
	return c.estimateHash(hashx.HashUint64(item, c.layout.Seed))
}

func (c *AtomicCountMin) estimateHash(h uint64) uint64 {
	var buf [frequency.StackDepth]uint64
	return frequency.MinCells(c.appendCells(buf[:0], h))
}

// AppendCells appends the depth counters a point query for item reads,
// each loaded atomically, in row order — the same cells, in the same
// order, as frequency.CountMin.AppendCells on a Snapshot.
func (c *AtomicCountMin) AppendCells(dst []uint64, item []byte) []uint64 {
	return c.appendCells(dst, hashx.XXHash64(item, c.layout.Seed))
}

func (c *AtomicCountMin) appendCells(dst []uint64, h uint64) []uint64 {
	var buf [frequency.StackDepth]uint32
	for _, j := range c.layout.Cells(h, buf[:]) {
		dst = append(dst, c.cells[j].Load())
	}
	return dst
}

// N returns the total weight added.
func (c *AtomicCountMin) N() uint64 { return c.n.Load() }

// Width returns the bucket count per row.
func (c *AtomicCountMin) Width() int { return c.layout.Width }

// Depth returns the number of rows.
func (c *AtomicCountMin) Depth() int { return c.layout.Depth }

// Seed returns the hash seed.
func (c *AtomicCountMin) Seed() uint64 { return c.layout.Seed }

// Layout returns the built layout the sketch addresses by.
func (c *AtomicCountMin) Layout() frequency.Layout { return c.layout }

// SizeBytes returns the counter storage size.
func (c *AtomicCountMin) SizeBytes() int { return len(c.cells) * 8 }

// Merge atomically adds a plain CountMin's counters cell-wise; the peer
// must hold the same layout and not be conservative (those counters are
// not linear). Concurrent Adds interleave safely: each cell addition is
// atomic, so the never-undercount guarantee holds for any item whose
// updates happened-before a subsequent query.
func (c *AtomicCountMin) Merge(other *frequency.CountMin) error {
	if !c.layout.Same(other.Layout()) {
		return fmt.Errorf("%w: atomic count-min %v vs %v", core.ErrIncompatible, c.layout, other.Layout())
	}
	if other.Conservative() {
		return fmt.Errorf("%w: conservative-update sketches are not mergeable", core.ErrIncompatible)
	}
	for j, v := range other.Table() {
		if v != 0 {
			c.cells[j].Add(v)
		}
	}
	c.n.Add(other.N())
	return nil
}

// Snapshot copies the counters into a plain CountMin for serialization
// or offline use. Each counter is read atomically; under concurrent
// writes the copy is a per-cell snapshot (sufficient for the
// overestimate guarantee, as with EstimateUint64).
func (c *AtomicCountMin) Snapshot() *frequency.CountMin {
	cm := frequency.NewCountMinLayout(c.layout)
	cells := cm.Table()
	for j := range cells {
		cells[j] = c.cells[j].Load()
	}
	cm.SetN(c.n.Load())
	return cm
}

// MarshalBinary serializes a snapshot in the standard Count-Min
// envelope, so any CountMin can absorb it.
func (c *AtomicCountMin) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst. The counters
// are loaded straight into the envelope — the same per-cell snapshot as
// Snapshot's, without a second table in between.
func (c *AtomicCountMin) AppendBinary(dst []byte) ([]byte, error) {
	return frequency.AppendCountMin(dst, &c.layout, c.n.Load(), false, c.cells), nil
}
