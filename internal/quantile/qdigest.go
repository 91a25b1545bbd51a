package quantile

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// QDigest is the q-digest of Shrivastava, Buragohain, Agrawal and Suri
// (SenSys 2004), designed for merging across sensor networks — the
// paper's example of a quantile sketch that "focused on mergability for
// distributed data". It summarizes values from a bounded integer domain
// [0, 2^logU) as counts on nodes of the implicit complete binary tree
// over the domain; the digest property keeps every non-root node's
// neighborhood count above n/k, bounding the tree at O(k·log U) nodes
// and rank error at (log U / k)·n.
type QDigest struct {
	logU  uint8
	k     uint64
	n     uint64
	nodes map[uint64]uint64 // tree node id (1-based heap numbering) -> count
}

// NewQDigest creates a q-digest over the domain [0, 2^logU) with
// compression factor k (rank error ≈ logU/k).
func NewQDigest(logU uint8, k uint64) *QDigest {
	if logU < 1 || logU > 32 {
		panic("quantile: q-digest logU must be in [1,32]")
	}
	if k < 1 {
		panic("quantile: q-digest k must be >= 1")
	}
	return &QDigest{logU: logU, k: k, nodes: make(map[uint64]uint64)}
}

// leafID returns the tree id of the leaf for value v: leaves occupy
// ids [2^logU, 2^(logU+1)).
func (s *QDigest) leafID(v uint64) uint64 { return (1 << s.logU) + v }

// Add inserts weight copies of value v.
func (s *QDigest) Add(v uint64, weight uint64) {
	if v >= 1<<s.logU {
		panic(fmt.Sprintf("quantile: q-digest value %d outside domain 2^%d", v, s.logU))
	}
	s.nodes[s.leafID(v)] += weight
	s.n += weight
	if uint64(len(s.nodes)) > 3*s.k {
		s.Compress()
	}
}

// Compress restores the digest property bottom-up: any node whose
// count plus sibling plus parent is below ⌊n/k⌋ is folded into its
// parent.
func (s *QDigest) Compress() {
	threshold := s.n / s.k
	if threshold == 0 {
		threshold = 1
	}
	// Process nodes level by level from the leaves up.
	ids := make([]uint64, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] }) // deepest first
	for _, id := range ids {
		if id <= 1 {
			continue // root cannot fold further
		}
		c, ok := s.nodes[id]
		if !ok {
			continue // already folded
		}
		sibling := id ^ 1
		parent := id >> 1
		total := c + s.nodes[sibling] + s.nodes[parent]
		if total < threshold {
			s.nodes[parent] = total
			delete(s.nodes, id)
			delete(s.nodes, sibling)
		}
	}
}

// Quantile returns an approximate q-quantile of the inserted values.
// It performs the canonical post-order walk: nodes sorted by right
// endpoint accumulate counts until q·n is reached (nodes that share an
// endpoint answer alike, whichever comes first).
func (s *QDigest) Quantile(q float64) uint64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pairs := make([]weighted, 0, len(s.nodes))
	for id, c := range s.nodes {
		_, hi := s.nodeRange(id)
		pairs = append(pairs, weighted{float64(hi), c}) // hi < 2^32: exact
	}
	if v, ok := weightedQuantile(pairs, q, s.n); ok {
		return uint64(v)
	}
	return uint64(pairs[len(pairs)-1].v) // q is not a number
}

// nodeRange returns the inclusive value range covered by tree node id.
func (s *QDigest) nodeRange(id uint64) (uint64, uint64) {
	level := uint8(0)
	for i := id; i > 1; i >>= 1 {
		level++
	}
	span := uint64(1) << (s.logU - level)
	offset := id - 1<<level
	return offset * span, offset*span + span - 1
}

// N returns the total inserted weight.
func (s *QDigest) N() uint64 { return s.n }

// LogU returns the domain exponent: values must lie in [0, 2^LogU).
// Callers feeding untrusted input check this before Add, which panics
// on out-of-domain values.
func (s *QDigest) LogU() uint8 { return s.logU }

// NodeCount returns the number of stored tree nodes — the E6 space
// figure.
func (s *QDigest) NodeCount() int { return len(s.nodes) }

// SizeBytes returns the approximate memory footprint.
func (s *QDigest) SizeBytes() int { return len(s.nodes) * 16 }

// ErrorBound returns the rank error bound (logU/k)·n.
func (s *QDigest) ErrorBound() float64 {
	return float64(s.logU) / float64(s.k) * float64(s.n)
}

// Merge adds another digest's node counts and recompresses — the
// sensor-network aggregation the structure was designed for.
func (s *QDigest) Merge(other *QDigest) error {
	if s.logU != other.logU || s.k != other.k {
		return fmt.Errorf("%w: q-digest logU/k mismatch", core.ErrIncompatible)
	}
	if other.n == 0 {
		return nil // an empty peer is the identity: no recompression
	}
	for id, c := range other.nodes {
		s.nodes[id] += c
	}
	s.n += other.n
	s.Compress()
	return nil
}

// MarshalBinary serializes the digest.
func (s *QDigest) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagQDigest, 1)
	w.U8(s.logU)
	w.U64(s.k)
	w.U64(s.n)
	ids := make([]uint64, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U64(id)
		w.U64(s.nodes[id])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a digest serialized by MarshalBinary.
func (s *QDigest) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagQDigest, 1)
	if err != nil {
		return err
	}
	logU := r.U8()
	k := r.U64()
	n := r.U64()
	cnt := r.Count(16) // 2 × U64 per node
	if r.Err() != nil {
		return r.Err()
	}
	if logU < 1 || logU > 32 || k < 1 {
		return fmt.Errorf("%w: q-digest params", core.ErrCorrupt)
	}
	nodes := make(map[uint64]uint64, cnt)
	var total uint64
	maxID := uint64(1) << (logU + 1)
	for i := 0; i < cnt; i++ {
		id := r.U64()
		c := r.U64()
		if id < 1 || id >= maxID {
			return fmt.Errorf("%w: q-digest node id %d", core.ErrCorrupt, id)
		}
		nodes[id] = c
		total += c
	}
	if err := r.Done(); err != nil {
		return err
	}
	if total != n {
		return fmt.Errorf("%w: q-digest counts sum %d != n %d", core.ErrCorrupt, total, n)
	}
	s.logU, s.k, s.n, s.nodes = logU, k, n, nodes
	return nil
}
