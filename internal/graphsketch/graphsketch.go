// Package graphsketch implements the Ahn–Guha–McGregor graph sketch
// (SODA 2012), the paper's example of sketching complex data types:
// each vertex keeps an L0-sampler sketch of its signed edge-incidence
// vector. Because the samplers are linear, the sketch of a component
// (the sum of its vertices' sketches) cancels internal edges and
// samples only *cut* edges — which is exactly what Borůvka's algorithm
// needs to find spanning forests and connectivity in O(polylog) passes
// over sketches instead of the edge list (experiment E12).
//
// Edge encoding: the edge {u, v} with u < v maps to index u·n + v of
// the incidence vector; vertex u records it with weight +1 and vertex v
// with weight −1, so summing the sketches of u and v cancels it.
package graphsketch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sample"
)

// Sketch summarizes a graph on n vertices for connectivity queries.
// Multiple independent sampler rounds are kept because each Borůvka
// round must use fresh randomness.
type Sketch struct {
	n        int
	rounds   int
	samplers [][]*sample.L0Sampler // rounds × vertices
	seed     uint64
}

// New creates a graph sketch for n vertices with the given number of
// Borůvka rounds (log₂ n rounds suffice; a couple extra add safety).
func New(n int, rounds int, seed uint64) *Sketch {
	if n < 1 {
		panic("graphsketch: n must be positive")
	}
	if rounds < 1 {
		panic("graphsketch: rounds must be positive")
	}
	samplers := make([][]*sample.L0Sampler, rounds)
	for r := range samplers {
		samplers[r] = make([]*sample.L0Sampler, n)
		for v := range samplers[r] {
			samplers[r][v] = roundSampler(seed, r)
		}
	}
	return &Sketch{n: n, rounds: rounds, samplers: samplers, seed: seed}
}

// roundSampler is an empty sampler of round r. All samplers within a
// round share hash seeds (required for linearity across vertices);
// rounds differ.
func roundSampler(seed uint64, r int) *sample.L0Sampler {
	return sample.NewL0Sampler(12, seed+uint64(r)*0x9e3779b97f4a7c15)
}

// edgeIndex maps {u, v} to its incidence-vector coordinate.
func (s *Sketch) edgeIndex(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*uint64(s.n) + uint64(v)
}

// decodeEdge inverts edgeIndex.
func (s *Sketch) decodeEdge(idx uint64) (int, int) {
	return int(idx / uint64(s.n)), int(idx % uint64(s.n))
}

// AddEdge inserts the undirected edge {u, v}.
func (s *Sketch) AddEdge(u, v int) { s.updateEdge(u, v, 1) }

// RemoveEdge deletes the undirected edge {u, v} (dynamic graphs are the
// point of the linear-sketch approach).
func (s *Sketch) RemoveEdge(u, v int) { s.updateEdge(u, v, -1) }

func (s *Sketch) updateEdge(u, v int, w int64) {
	if u == v {
		panic("graphsketch: self loops are not representable")
	}
	if u < 0 || v < 0 || u >= s.n || v >= s.n {
		panic(fmt.Sprintf("graphsketch: vertex out of range [0,%d)", s.n))
	}
	idx := s.edgeIndex(u, v)
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	for r := 0; r < s.rounds; r++ {
		s.samplers[r][lo].Update(idx, w)
		s.samplers[r][hi].Update(idx, -w)
	}
}

// N returns the number of vertices.
func (s *Sketch) N() int { return s.n }

// Merge combines edge sets: sketches of two edge-disjoint streams (or
// streams whose insertions/deletions net out) over the same vertex set
// add linearly.
func (s *Sketch) Merge(other *Sketch) error {
	if s.n != other.n || s.rounds != other.rounds || s.seed != other.seed {
		return fmt.Errorf("%w: graph sketch shape mismatch", core.ErrIncompatible)
	}
	for r := range s.samplers {
		for v := range s.samplers[r] {
			if err := s.samplers[r][v].Merge(other.samplers[r][v]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ConnectedComponents returns the component id of every vertex, its
// union-find root after Borůvka. With enough rounds the result equals
// the true components with high probability.
func (s *Sketch) ConnectedComponents() []int {
	find, _ := s.boruvka()
	out := make([]int, s.n)
	for v := range out {
		out[v] = find(v)
	}
	return out
}

// Connected reports whether u and v are in the same component.
func (s *Sketch) Connected(u, v int) bool {
	comps := s.ConnectedComponents()
	return comps[u] == comps[v]
}

// ComponentCount returns the number of connected components (isolated
// vertices count individually).
func (s *Sketch) ComponentCount() int {
	comps := s.ConnectedComponents()
	seen := make(map[int]bool)
	for _, c := range comps {
		seen[c] = true
	}
	return len(seen)
}

// SpanningForest returns the edges Borůvka used, one set per merge —
// a spanning forest of the sketched graph (with high probability).
func (s *Sketch) SpanningForest() [][2]int {
	_, forest := s.boruvka()
	return forest
}

// boruvka runs sketch-space Borůvka: in each round, every current
// component samples one cut edge from the summed round sketches of its
// vertices and unions along it. Components are visited in ascending
// order of their smallest vertex, so the answer is a function of the
// sketch alone. It returns the union-find it leaves behind and the edges
// it unioned along, in order.
func (s *Sketch) boruvka() (find func(int) int, forest [][2]int) {
	parent := make([]int, s.n)
	for i := range parent {
		parent[i] = i
	}
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	slot := make([]int, s.n) // a root's index in comps, +1 (0: not seen this round)
	for r := 0; r < s.rounds; r++ {
		// Group vertices by component.
		clear(slot)
		var comps [][]int
		for v := 0; v < s.n; v++ {
			root := find(v)
			if slot[root] == 0 {
				comps = append(comps, nil)
				slot[root] = len(comps)
			}
			comps[slot[root]-1] = append(comps[slot[root]-1], v)
		}
		if len(comps) == 1 {
			break
		}
		merged := false
		for _, members := range comps {
			// Sum the round-r sketches of the component's vertices.
			agg := roundSampler(s.seed, r)
			for _, v := range members {
				if err := agg.Merge(s.samplers[r][v]); err != nil {
					// Same-round samplers always share seeds; any
					// failure is a programming error.
					panic(err)
				}
			}
			if idx, _, ok := agg.Sample(); ok {
				u, v := s.decodeEdge(idx)
				if ru, rv := find(u), find(v); ru != rv {
					parent[ru] = rv
					forest = append(forest, [2]int{u, v})
					merged = true
				}
			}
		}
		if !merged {
			break
		}
	}
	return find, forest
}

// Rounds returns the number of independent Borůvka rounds kept.
func (s *Sketch) Rounds() int { return s.rounds }

// MarshalBinary serializes the graph sketch: the shape and seed, then
// each vertex sampler's own envelope (rounds-major) as a nested
// length-prefixed payload.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagGraphSketch, 1)
	w.U32(uint32(s.n))
	w.U32(uint32(s.rounds))
	w.U64(s.seed)
	for _, round := range s.samplers {
		for _, sampler := range round {
			payload, err := sampler.MarshalBinary()
			if err != nil {
				return nil, err
			}
			w.BytesField(payload)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a graph sketch serialized by MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	rd, _, err := core.NewReaderVersioned(data, core.TagGraphSketch, 1)
	if err != nil {
		return err
	}
	n := int(rd.U32())
	rounds := int(rd.U32())
	seed := rd.U64()
	if rd.Err() != nil {
		return rd.Err()
	}
	// Each sampler payload is at least a 4-byte length prefix, so the
	// product bound below also keeps the decode loop proportional to
	// the input size on corrupt counts.
	if n < 1 || rounds < 1 || n > 1<<20 || rounds > 64 || n*rounds > (len(data)+3)/4 {
		return fmt.Errorf("%w: graphsketch n=%d rounds=%d", core.ErrCorrupt, n, rounds)
	}
	samplers := make([][]*sample.L0Sampler, rounds)
	for r := range samplers {
		samplers[r] = make([]*sample.L0Sampler, n)
		like := roundSampler(seed, r)
		for v := range samplers[r] {
			payload := rd.BytesField()
			if rd.Err() != nil {
				return rd.Err()
			}
			sampler := new(sample.L0Sampler)
			if err := sampler.UnmarshalBinary(payload); err != nil {
				return err
			}
			if !like.SameShape(sampler) { // a query would add it to its round's and panic
				return fmt.Errorf("%w: graphsketch round %d holds a sampler of another seed or sparsity", core.ErrCorrupt, r)
			}
			samplers[r][v] = sampler
		}
	}
	if err := rd.Done(); err != nil {
		return err
	}
	s.n, s.rounds, s.samplers, s.seed = n, rounds, samplers, seed
	return nil
}
