package concurrent

import (
	"sync"

	"repro/internal/frequency"
	"repro/internal/hashx"
)

// ServingSF is the concurrent serving variant of frequency.SFSketch.
// The two-stage update is read-dependent (each slim counter's raise is
// capped by the fat stage's post-update estimate), so per-counter
// atomics would race the cap; writes serialize behind one RWMutex
// instead, and the wrapper earns its keep by hashing whole batches
// OUTSIDE the critical section — the hash pass is the pure-ALU half of
// an update, so writers contend only for the counter-touching half —
// and by letting queries and snapshots share an RLock.
//
// Updates applied in batch order are byte-identical to the plain
// type's, so WAL replay of the serving variant reconstructs the same
// counters (the same discipline the conservative Count-Min path
// follows).
type ServingSF struct {
	mu   sync.RWMutex
	s    *frequency.SFSketch
	seed uint64 // immutable; read without the lock by the hash pass
}

// NewServingSF builds the serving wrapper over a fresh SF-sketch.
func NewServingSF(slimWidth, slimDepth, fatWidth, fatDepth int, seed uint64) *ServingSF {
	return &ServingSF{s: frequency.NewSFSketch(slimWidth, slimDepth, fatWidth, fatDepth, seed), seed: seed}
}

// Add increments item's count by weight.
func (s *ServingSF) Add(item []byte, weight uint64) {
	h := hashx.XXHash64(item, s.seed)
	s.mu.Lock()
	s.s.AddHash(h, weight)
	s.mu.Unlock()
}

// AddBatch increments each item's count by one. Items are hashed in
// chunks outside the lock; the counter updates apply under one lock
// acquisition per chunk.
func (s *ServingSF) AddBatch(items [][]byte) {
	var hs [atomicIngestChunk]uint64
	for len(items) > 0 {
		n := len(items)
		if n > atomicIngestChunk {
			n = atomicIngestChunk
		}
		for i, item := range items[:n] {
			hs[i] = hashx.XXHash64(item, s.seed)
		}
		s.AddHashBatch(hs[:n])
		items = items[n:]
	}
}

// AddHashBatch folds pre-hashed items in under one lock acquisition.
func (s *ServingSF) AddHashBatch(hs []uint64) {
	s.mu.Lock()
	s.s.AddHashBatch(hs)
	s.mu.Unlock()
}

// AddWeightedHashBatch folds a block of pre-hashed items in, hs[i] with
// weight ws[i], in order under one lock acquisition: what a served
// weighted batch costs the lock, hashing done before it.
func (s *ServingSF) AddWeightedHashBatch(hs, ws []uint64) {
	s.mu.Lock()
	s.s.AddWeightedHashBatch(hs, ws)
	s.mu.Unlock()
}

// Estimate answers a point query from the slim stage.
func (s *ServingSF) Estimate(item []byte) uint64 {
	h := hashx.XXHash64(item, s.seed)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.s.EstimateHash(h)
}

// EstimateString answers a point query for a string item.
func (s *ServingSF) EstimateString(item string) uint64 {
	h := hashx.XXHash64String(item, s.seed)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.s.EstimateHash(h)
}

// FatEstimate answers a point query from the fat stage (diagnostics).
func (s *ServingSF) FatEstimate(item []byte) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.s.FatEstimate(item)
}

// Merge absorbs a decoded peer (full+full or slim+slim, per the plain
// type's rules).
func (s *ServingSF) Merge(other *frequency.SFSketch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Merge(other)
}

// Snapshot returns a deep copy of the wrapped sketch.
func (s *ServingSF) Snapshot() *frequency.SFSketch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.s.Clone()
}

// MarshalBinary serializes the full two-stage state.
func (s *ServingSF) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// AppendBinary appends the full two-stage state to dst.
func (s *ServingSF) AppendBinary(dst []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.s.AppendBinary(dst)
}

// MarshalSlim serializes the slim stage only (the wire-efficient
// envelope).
func (s *ServingSF) MarshalSlim() ([]byte, error) { return s.AppendSlim(nil) }

// AppendSlim appends the slim envelope to dst.
func (s *ServingSF) AppendSlim(dst []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.s.AppendSlim(dst)
}

// N returns the total weight added.
func (s *ServingSF) N() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.s.N()
}

// Seed returns the hash seed.
func (s *ServingSF) Seed() uint64 { return s.seed }

// SizeBytes returns the resident counter storage of both stages.
func (s *ServingSF) SizeBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.s.SizeBytes()
}

// SlimSizeBytes returns the slim-stage counter bytes.
func (s *ServingSF) SlimSizeBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.s.SlimSizeBytes()
}
