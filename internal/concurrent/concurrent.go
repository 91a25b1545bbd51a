// Package concurrent provides thread-safe sketch wrappers in the
// spirit of the Yahoo!/Apache DataSketches "fast concurrent data
// sketches" work the paper cites (Rinberg et al., TOPC 2022): the
// project "emphasised the need for concurrency and mergability of
// sketches". Two designs are provided:
//
//   - ShardedHLL: per-goroutine HLL shards that are merged on read.
//     Updates are entirely uncontended (the DataSketches approach of
//     thread-local buffers), reads pay the merge.
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
// epoch — the sum of per-shard write counters — so a read-heavy
// workload pays the O(m · shards) merge only after a write actually
// changed something, not on every Estimate call.
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
// with other holders of the same shard.
func (s *ShardedHLL) Handle() *HLLHandle {
	idx := int(s.next.Add(1)-1) % len(s.shards)
	return &HLLHandle{slot: &s.shards[idx]}
}

// HLLHandle is a shard-bound writer.
type HLLHandle struct {
	slot *shardedHLLSlot
}

// AddUint64 inserts an item through the handle.
func (h *HLLHandle) AddUint64(v uint64) {
	h.slot.mu.Lock()
	h.slot.hll.AddUint64(v)
	h.slot.version.Add(1)
	h.slot.mu.Unlock()
}

// Add inserts a byte-slice item through the handle.
func (h *HLLHandle) Add(item []byte) {
	h.slot.mu.Lock()
	h.slot.hll.Add(item)
	h.slot.version.Add(1)
	h.slot.mu.Unlock()
}

// AddBatchUint64 inserts many items under one lock acquisition; the
// serving layer uses it so a network batch costs one lock round-trip,
// not one per item.
func (h *HLLHandle) AddBatchUint64(vs []uint64) {
	h.slot.mu.Lock()
	for _, v := range vs {
		h.slot.hll.AddUint64(v)
	}
	h.slot.version.Add(uint64(len(vs)))
	h.slot.mu.Unlock()
}

// AddBatch inserts many byte-slice items in fixed-size chunks: each
// chunk is fully hashed *outside* the lock (pure ALU work other
// goroutines never wait on), then folded in under one acquisition via
// the two-phase AddHashBatch. Items may be reused by the caller after
// the call returns; state is identical to per-item Add.
func (h *HLLHandle) AddBatch(items [][]byte) {
	var hs [atomicIngestChunk]uint64
	seed := h.slot.hll.Seed()
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
	h.slot.mu.Lock()
	h.slot.hll.AddHashBatch(hs)
	h.slot.version.Add(uint64(len(hs)))
	h.slot.mu.Unlock()
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

// mergeShards builds a fresh merged sketch from all shards. This is the
// uncached read path; BenchmarkShardedHLLEstimate measures what the
// epoch cache saves over calling this on every read.
func (s *ShardedHLL) mergeShards() *cardinality.HLL {
	merged := cardinality.NewHLL(s.p, s.seed)
	for i := range s.shards {
		s.shards[i].mu.Lock()
		clone := s.shards[i].hll.Clone()
		s.shards[i].mu.Unlock()
		if err := merged.Merge(clone); err != nil {
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
// served from the epoch cache in O(shards) instead of O(m · shards).
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
func (s *ShardedHLL) MarshalBinary() ([]byte, error) {
	merged, _ := s.mergedView()
	return merged.MarshalBinary()
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
// Row positions use the same hash-once double-hashing scheme as
// derived-mode frequency.CountMin — equal width, depth and seed imply
// identical bucket addressing, which is what makes Merge and Snapshot
// exchanges with the plain sketch exact.
type AtomicCountMin struct {
	counts []atomic.Uint64 // depth × width: row-major, or fused block order
	width  int
	depth  int
	blocks uint64 // fused mode: 8-counter blocks per row (width/8)
	seed   uint64
	fused  bool
	n      atomic.Uint64
}

// NewAtomicCountMin creates a width×depth atomic Count-Min sketch.
func NewAtomicCountMin(width, depth int, seed uint64) *AtomicCountMin {
	if width < 1 || depth < 1 {
		panic("concurrent: dimensions must be positive")
	}
	return &AtomicCountMin{
		counts: make([]atomic.Uint64, width*depth),
		width:  width,
		depth:  depth,
		seed:   seed,
	}
}

// NewAtomicCountMinFused creates an atomic Count-Min in the fused
// cache-line layout, addressing exactly the same cells as
// frequency.NewCountMinFused with equal shape and seed (which is what
// keeps Merge and Snapshot exchanges with the plain fused sketch
// exact). Width is rounded up to a multiple of 8; depth is capped at
// 21, mirroring the plain constructor.
func NewAtomicCountMinFused(width, depth int, seed uint64) *AtomicCountMin {
	shape := frequency.NewCountMinFused(width, depth, seed) // reuse sizing + validation
	return &AtomicCountMin{
		counts: make([]atomic.Uint64, shape.Width()*shape.Depth()),
		width:  shape.Width(),
		depth:  shape.Depth(),
		blocks: uint64(shape.Width() / 8),
		seed:   seed,
		fused:  true,
	}
}

// AddUint64 adds weight to an integer item's count. Safe for concurrent
// use without external locking.
func (c *AtomicCountMin) AddUint64(item, weight uint64) {
	c.AddHash(hashx.HashUint64(item, c.seed), weight)
}

// Add adds weight occurrences of a byte-slice item: one hash pass, all
// row positions derived from it. Equivalent to
// AddHash(hashx.XXHash64(item, seed), weight), the same item→bucket map
// as derived-mode frequency.CountMin.
func (c *AtomicCountMin) Add(item []byte, weight uint64) {
	c.AddHash(hashx.XXHash64(item, c.seed), weight)
}

// AddString adds weight occurrences of a string item without copying
// or allocating.
func (c *AtomicCountMin) AddString(item string, weight uint64) {
	c.AddHash(hashx.XXHash64String(item, c.seed), weight)
}

// AddHash adds weight at the derived row positions
// FastRange(h + r·DeriveH2(h), width), matching
// frequency.CountMin.AddHash in derived mode. Wait-free: one atomic add
// per row.
func (c *AtomicCountMin) AddHash(h, weight uint64) {
	if c.fused {
		base, slots := c.fusedBase(h)
		for r := 0; r < c.depth; r++ {
			c.counts[base+slots&7].Add(weight)
			base += 8
			slots >>= 3
		}
		c.n.Add(weight)
		return
	}
	h2 := hashx.DeriveH2(h)
	w := uint64(c.width)
	x := h
	for r := 0; r < c.depth; r++ {
		c.counts[r*c.width+int(hashx.FastRange(x, w))].Add(weight)
		x += h2
	}
	c.n.Add(weight)
}

// fusedBase mirrors frequency.CountMin's fused addressing: the flat
// index of row 0's cache line in the block column h selects, and the
// slot word whose 3-bit chunks pick each row's cell.
func (c *AtomicCountMin) fusedBase(h uint64) (base, slots uint64) {
	return hashx.FastRange(h, c.blocks) * uint64(c.depth) * 8,
		hashx.Mix64(hashx.DeriveH2(h))
}

// atomicIngestChunk is the chunk size of AddHashBatch's two-phase
// loop; see the frequency package's ingestChunk.
const atomicIngestChunk = 256

// AddHashBatch folds many pre-hashed items in, each with weight 1 —
// the hash-once batch entry point for ingest pipelines. The loop is
// two-phase over fixed chunks: phase 1 derives every item's addressing
// state (pure ALU), phase 2 streams the atomic adds, so independent
// cache misses overlap. Atomic adds commute, so state is identical to
// calling AddHash per value.
func (c *AtomicCountMin) AddHashBatch(hs []uint64) {
	var xs, h2s [atomicIngestChunk]uint64
	w := uint64(c.width)
	for start := 0; start < len(hs); start += atomicIngestChunk {
		end := start + atomicIngestChunk
		if end > len(hs) {
			end = len(hs)
		}
		chunk := hs[start:end]
		if c.fused {
			for i, h := range chunk {
				xs[i], h2s[i] = c.fusedBase(h)
			}
			for i := range chunk {
				base, slots := xs[i], h2s[i]
				for r := 0; r < c.depth; r++ {
					c.counts[base+slots&7].Add(1)
					base += 8
					slots >>= 3
				}
			}
		} else {
			for i, h := range chunk {
				xs[i] = h
				h2s[i] = hashx.DeriveH2(h)
			}
			for r := 0; r < c.depth; r++ {
				row := c.counts[r*c.width : (r+1)*c.width]
				for i := range chunk {
					row[hashx.FastRange(xs[i], w)].Add(1)
					xs[i] += h2s[i]
				}
			}
		}
		c.n.Add(uint64(len(chunk)))
	}
}

// Estimate returns the point-query estimate for a byte-slice item,
// probing exactly the buckets Add touched for the same item.
func (c *AtomicCountMin) Estimate(item []byte) uint64 {
	return c.estimateHash(hashx.XXHash64(item, c.seed))
}

// EstimateUint64 returns the point-query estimate for an integer item.
func (c *AtomicCountMin) EstimateUint64(item uint64) uint64 {
	return c.estimateHash(hashx.HashUint64(item, c.seed))
}

func (c *AtomicCountMin) estimateHash(h uint64) uint64 {
	var buf [8]uint64 // typical depths stay on the stack
	return frequency.MinCells(c.appendCells(buf[:0], h))
}

// AppendCells appends the depth counters a point query for item reads,
// each loaded atomically, in row order — the same cells, in the same
// order, as frequency.CountMin.AppendCells on a Snapshot.
func (c *AtomicCountMin) AppendCells(dst []uint64, item []byte) []uint64 {
	return c.appendCells(dst, hashx.XXHash64(item, c.seed))
}

func (c *AtomicCountMin) appendCells(dst []uint64, h uint64) []uint64 {
	if c.fused {
		base, slots := c.fusedBase(h)
		for r := 0; r < c.depth; r++ {
			dst = append(dst, c.counts[base+slots&7].Load())
			base += 8
			slots >>= 3
		}
		return dst
	}
	h2 := hashx.DeriveH2(h)
	w := uint64(c.width)
	for r := 0; r < c.depth; r++ {
		dst = append(dst, c.counts[r*c.width+int(hashx.FastRange(h, w))].Load())
		h += h2
	}
	return dst
}

// N returns the total weight added.
func (c *AtomicCountMin) N() uint64 { return c.n.Load() }

// Width returns the bucket count per row.
func (c *AtomicCountMin) Width() int { return c.width }

// Depth returns the number of rows.
func (c *AtomicCountMin) Depth() int { return c.depth }

// Seed returns the hash seed.
func (c *AtomicCountMin) Seed() uint64 { return c.seed }

// Fused reports whether counters live in the fused cache-line layout.
func (c *AtomicCountMin) Fused() bool { return c.fused }

// SizeBytes returns the counter storage size.
func (c *AtomicCountMin) SizeBytes() int { return len(c.counts) * 8 }

// compatibleWith checks that a plain CountMin addresses the same
// buckets: equal width, depth and seed in derived mode imply identical
// double-hashed row positions.
func (c *AtomicCountMin) compatibleWith(other *frequency.CountMin) error {
	if c.width != other.Width() || c.depth != other.Depth() || c.seed != other.Seed() {
		return fmt.Errorf("%w: atomic count-min %dx%d/seed=%d vs %dx%d/seed=%d",
			core.ErrIncompatible, c.width, c.depth, c.seed,
			other.Width(), other.Depth(), other.Seed())
	}
	if !other.Derived() {
		return fmt.Errorf("%w: atomic count-min requires a derived-mode peer", core.ErrIncompatible)
	}
	if other.Conservative() {
		return fmt.Errorf("%w: conservative-update sketches are not mergeable", core.ErrIncompatible)
	}
	if other.Fused() != c.fused {
		return fmt.Errorf("%w: count-min layouts differ (fused vs row-major)", core.ErrIncompatible)
	}
	return nil
}

// Merge atomically adds a hash-compatible plain CountMin's counters
// cell-wise. Concurrent Adds interleave safely: each cell addition is
// atomic, so the never-undercount guarantee holds for any item whose
// updates happened-before a subsequent query.
func (c *AtomicCountMin) Merge(other *frequency.CountMin) error {
	if err := c.compatibleWith(other); err != nil {
		return err
	}
	for i, v := range other.CountsRowMajor() {
		if v != 0 {
			c.counts[i].Add(v)
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
	counts := make([]uint64, len(c.counts))
	for i := range c.counts {
		counts[i] = c.counts[i].Load()
	}
	var cm *frequency.CountMin
	var err error
	if c.fused {
		cm, err = frequency.NewCountMinFusedFromCounts(c.width, c.depth, c.seed, counts, c.n.Load())
	} else {
		cm, err = frequency.NewCountMinFromCounts(c.width, c.depth, c.seed, counts, c.n.Load())
	}
	if err != nil {
		panic(err) // dimensions match by construction
	}
	return cm
}

// MarshalBinary serializes a snapshot in the standard Count-Min
// envelope, so any CountMin can absorb it.
func (c *AtomicCountMin) MarshalBinary() ([]byte, error) {
	return c.Snapshot().MarshalBinary()
}
