// Package sample implements the sampling-based summaries the paper
// calls the earliest sketches: uniform reservoir sampling (Algorithm R,
// the Fan/Waterman incremental scheme), weighted reservoir sampling
// (Efraimidis–Spirakis A-ES), and an L0 (distinct) sampler built from
// s-sparse recovery — the linear-sketch primitive behind the "Tight
// bounds for Lp samplers" PODS 2011 result and the AGM graph sketches
// (internal/graphsketch).
package sample

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/randx"
)

// Reservoir maintains a uniform random sample of k items from a stream
// of unknown length: item t replaces a random slot with probability
// k/t. Every subset of size k of the prefix is equally likely — the
// invariant the property test checks.
type Reservoir struct {
	k     int
	n     uint64
	items [][]byte
	rng   *randx.RNG
	seed  uint64
}

// NewReservoir creates a reservoir of capacity k.
func NewReservoir(k int, seed uint64) *Reservoir {
	if k < 1 {
		panic("sample: reservoir capacity must be >= 1")
	}
	return &Reservoir{k: k, items: make([][]byte, 0, k), rng: randx.New(seed), seed: seed}
}

// Add offers an item to the reservoir (the bytes are copied).
func (r *Reservoir) Add(item []byte) {
	r.n++
	cp := append([]byte(nil), item...)
	if len(r.items) < r.k {
		r.items = append(r.items, cp)
		return
	}
	j := r.rng.Intn(int(r.n))
	if j < r.k {
		r.items[j] = cp
	}
}

// Update implements core.Updater.
func (r *Reservoir) Update(item []byte) { r.Add(item) }

// Sample returns the current sample (shared backing; callers treat it
// as read-only).
func (r *Reservoir) Sample() [][]byte { return r.items }

// N returns the number of items offered.
func (r *Reservoir) N() uint64 { return r.n }

// K returns the capacity.
func (r *Reservoir) K() int { return r.k }

// Merge combines another reservoir into this one so the result is a
// uniform sample of the union stream: each slot of the merged sample
// draws from the two reservoirs with probability proportional to their
// stream sizes, without replacement within each source.
func (r *Reservoir) Merge(other *Reservoir) error {
	if r.k != other.k {
		return fmt.Errorf("%w: reservoir capacities %d vs %d", core.ErrIncompatible, r.k, other.k)
	}
	if other.n == 0 {
		return nil // an empty peer is the identity: no shuffle, no draw
	}
	total := r.n + other.n
	// Shuffle copies of both samples, then draw slot by slot.
	mine := append([][]byte(nil), r.items...)
	theirs := append([][]byte(nil), other.items...)
	r.rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
	r.rng.Shuffle(len(theirs), func(i, j int) { theirs[i], theirs[j] = theirs[j], theirs[i] })
	out := make([][]byte, 0, min(r.k, len(mine)+len(theirs))) // a decoded k is not a size to reserve
	nMine, nTheirs := r.n, other.n
	for len(out) < r.k && (len(mine) > 0 || len(theirs) > 0) {
		takeMine := false
		if len(theirs) == 0 {
			takeMine = true
		} else if len(mine) > 0 {
			takeMine = r.rng.Float64() < float64(nMine)/float64(nMine+nTheirs)
		}
		if takeMine {
			out = append(out, mine[0])
			mine = mine[1:]
			if nMine > 0 {
				nMine--
			}
		} else {
			out = append(out, theirs[0])
			theirs = theirs[1:]
			if nTheirs > 0 {
				nTheirs--
			}
		}
	}
	r.items = out
	r.n = total
	return nil
}

// MarshalBinary serializes the reservoir.
func (r *Reservoir) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagReservoir, 1)
	w.U32(uint32(r.k))
	w.U64(r.seed)
	w.U64(r.n)
	w.U32(uint32(len(r.items)))
	for _, it := range r.items {
		w.BytesField(it)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a reservoir serialized by MarshalBinary.
func (r *Reservoir) UnmarshalBinary(data []byte) error {
	rd, _, err := core.NewReaderVersioned(data, core.TagReservoir, 1)
	if err != nil {
		return err
	}
	k := int(rd.U32())
	seed := rd.U64()
	n := rd.U64()
	cnt := rd.Count(4) // an item is at least its length prefix
	if rd.Err() != nil {
		return rd.Err()
	}
	if k < 1 || cnt > k {
		return fmt.Errorf("%w: reservoir k=%d items=%d", core.ErrCorrupt, k, cnt)
	}
	items := make([][]byte, cnt)
	for i := range items {
		items[i] = rd.BytesField()
	}
	if err := rd.Done(); err != nil {
		return err
	}
	r.k, r.seed, r.n, r.items = k, seed, n, items
	r.rng = randx.New(seed ^ 0x526573)
	return nil
}

// WeightedReservoir maintains a weighted sample of k items
// (Efraimidis–Spirakis A-ES): each item draws key u^(1/w); the k
// largest keys are kept, so an item's inclusion probability is
// proportional to its weight in the appropriate exponential-race sense.
type WeightedReservoir struct {
	k    int
	n    uint64
	keys []float64 // min-heap of keys
	vals [][]byte
	rng  *randx.RNG
	seed uint64
}

// NewWeightedReservoir creates a weighted reservoir of capacity k.
func NewWeightedReservoir(k int, seed uint64) *WeightedReservoir {
	if k < 1 {
		panic("sample: weighted reservoir capacity must be >= 1")
	}
	return &WeightedReservoir{k: k, rng: randx.New(seed), seed: seed}
}

// Add offers an item with the given positive weight.
func (r *WeightedReservoir) Add(item []byte, weight float64) {
	if weight <= 0 {
		panic("sample: weighted reservoir requires positive weight")
	}
	r.n++
	key := math.Pow(r.rng.Float64Open(), 1/weight)
	if len(r.keys) < r.k {
		r.push(key, append([]byte(nil), item...))
		return
	}
	if key > r.keys[0] {
		r.keys[0] = key
		r.vals[0] = append([]byte(nil), item...)
		r.siftDown(0)
	}
}

func (r *WeightedReservoir) push(key float64, val []byte) {
	r.keys = append(r.keys, key)
	r.vals = append(r.vals, val)
	i := len(r.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if r.keys[parent] <= r.keys[i] {
			break
		}
		r.keys[parent], r.keys[i] = r.keys[i], r.keys[parent]
		r.vals[parent], r.vals[i] = r.vals[i], r.vals[parent]
		i = parent
	}
}

func (r *WeightedReservoir) siftDown(i int) {
	n := len(r.keys)
	for {
		l, rt := 2*i+1, 2*i+2
		smallest := i
		if l < n && r.keys[l] < r.keys[smallest] {
			smallest = l
		}
		if rt < n && r.keys[rt] < r.keys[smallest] {
			smallest = rt
		}
		if smallest == i {
			return
		}
		r.keys[i], r.keys[smallest] = r.keys[smallest], r.keys[i]
		r.vals[i], r.vals[smallest] = r.vals[smallest], r.vals[i]
		i = smallest
	}
}

// Sample returns the current weighted sample.
func (r *WeightedReservoir) Sample() [][]byte { return r.vals }

// N returns the number of items offered.
func (r *WeightedReservoir) N() uint64 { return r.n }

// K returns the capacity.
func (r *WeightedReservoir) K() int { return r.k }

// MarshalBinary serializes the weighted reservoir: shape, seed, offer
// count, then the (key, item) pairs in heap-array order so a decoded
// instance resumes with an identical heap layout.
func (r *WeightedReservoir) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagWeightedReservoir, 1)
	w.U32(uint32(r.k))
	w.U64(r.seed)
	w.U64(r.n)
	w.U32(uint32(len(r.keys)))
	for i, key := range r.keys {
		w.F64(key)
		w.BytesField(r.vals[i])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a weighted reservoir serialized by
// MarshalBinary. The RNG restarts from the stored seed (like the
// plain reservoir, the sample stays valid; the random stream is not
// part of the state).
func (r *WeightedReservoir) UnmarshalBinary(data []byte) error {
	rd, _, err := core.NewReaderVersioned(data, core.TagWeightedReservoir, 1)
	if err != nil {
		return err
	}
	k := int(rd.U32())
	seed := rd.U64()
	n := rd.U64()
	cnt := rd.Count(12) // 8-byte key + 4-byte length prefix minimum
	if rd.Err() != nil {
		return rd.Err()
	}
	if k < 1 || cnt > k {
		return fmt.Errorf("%w: weighted reservoir k=%d items=%d", core.ErrCorrupt, k, cnt)
	}
	keys := make([]float64, cnt)
	vals := make([][]byte, cnt)
	for i := range keys {
		keys[i] = rd.F64()
		vals[i] = rd.BytesField()
	}
	if err := rd.Done(); err != nil {
		return err
	}
	r.k, r.seed, r.n, r.keys, r.vals = k, seed, n, keys, vals
	r.rng = randx.New(seed ^ 0x575265)
	return nil
}
