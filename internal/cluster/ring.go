// Package cluster makes sketchd horizontal: a coordinator hands each
// ingest batch, whole, to one of N sketchd shards in rotation over
// pooled per-shard clients, and answers queries by scatter-gathering
// per-shard envelopes and merging them through registry.MergeEnvelopes
// — as bytes where the family's envelope is its mergeable state,
// decoded and tree-merged (internal/mergex) otherwise — and a replica
// ships sealed DUR1 WAL segments from a shard to a follower with
// snapshot-based catch-up.
//
// The design leans entirely on properties the lower layers already
// guarantee. Sketches are mergeable, so any slice of the stream can
// live on any shard and the global view is the merge of the per-shard
// views — the partition only needs to be balanced, never "correct",
// and a batch is the unit a client already chose. Envelopes are
// self-describing (the GSK1 registry), so the coordinator has zero
// per-family code: it moves opaque envelopes and lets the registry's
// descriptors (MergeWire, or Decode and the Merge binding) do the rest. And the WAL is a
// deterministic replay log, so replication is file shipping plus the
// same recovery machinery a restart uses.
package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/hashx"
)

// defaultVirtualNodes is the per-shard virtual node count. 128 points
// per shard keeps the max/mean key imbalance under ~1.15 for small
// clusters (measured in the ring tests) while the whole ring for 16
// shards still fits in 32 KiB — one L1 load per routed key.
const defaultVirtualNodes = 128

// ringSeed salts the placement and key hash so ring positions are
// unrelated to any sketch-content hashing of the same keys.
const ringSeed = 0xC1_05_7E_12

// Ring is a consistent-hash ring over named shards. Each shard owns
// vnodes points on a 64-bit circle; a key routes to the shard
// owning the first point clockwise of the key's hash. Adding or
// removing one shard moves only ~1/N of the keys — the property that
// lets a keyed placement grow without moving history.
//
// Nothing the coordinator serves routes by it: ingest is whole-batch
// rotation, and correctness never depends on where a key lands (see the
// package comment). It stays only because benchmark/layertrace prices
// Coordinator.Ring().Shard as its cluster.ring span; ROADMAP item 5
// deletes the two together.
//
// Immutable after New: rebuilding on membership change is cheap and
// keeps lookups lock-free.
type Ring struct {
	shards []string
	points []ringPoint // sorted by hash, ascending
	// index[b] is the position of the first point whose hash has top
	// bits >= b: where a key whose hash starts with b begins its scan.
	index [1 << indexBits]uint32
}

// indexBits is how many top hash bits the prefix index resolves: 4096
// buckets, 16 KB. A 4-shard ring's 512 points leave seven buckets in
// eight empty, so a lookup is one load and a step or two, not the
// log2(points) dependent probes of a binary search.
const indexBits = 12

type ringPoint struct {
	hash  uint64
	shard int32
}

// NewRing builds a ring over shard identities (base URLs, typically)
// with vnodes virtual nodes per shard (<= 0 takes
// defaultVirtualNodes). Shard order does not affect placement — points
// hash the shard identity, not its index — so two coordinators given
// the same membership in different orders route identically.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("cluster: empty shard identity")
		}
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate shard %q", s)
		}
		seen[s] = true
	}
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	r := &Ring{
		shards: append([]string(nil), shards...),
		points: make([]ringPoint, 0, len(shards)*vnodes),
	}
	for i, shard := range r.shards {
		for v := 0; v < vnodes; v++ {
			h := hashx.XXHash64String(shard+"#"+strconv.Itoa(v), ringSeed)
			r.points = append(r.points, ringPoint{hash: h, shard: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	i := 0
	for b := range r.index {
		for i < len(r.points) && r.points[i].hash>>(64-indexBits) < uint64(b) {
			i++
		}
		r.index[b] = uint32(i)
	}
	return r, nil
}

// Shards returns the shard identities in construction order (the
// index space Shard returns into).
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// Shard routes a key to its owning shard index.
func (r *Ring) Shard(key []byte) int {
	return r.locate(hashx.XXHash64(key, ringSeed))
}

// locate finds the first ring point at or clockwise of h: from where
// the index says h's bucket starts, forward to the first point not
// below h, wrapping past the last point to the first.
func (r *Ring) locate(h uint64) int {
	pts := r.points
	i := int(r.index[h>>(64-indexBits)])
	for i < len(pts) && pts[i].hash < h {
		i++
	}
	if i == len(pts) {
		i = 0
	}
	return int(pts[i].shard)
}
