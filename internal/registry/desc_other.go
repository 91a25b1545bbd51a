package registry

import (
	"fmt"
	"net/url"

	"repro/internal/ams"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graphsketch"
	"repro/internal/lsh"
)

func init() {
	register(Descriptor{
		Tag:    core.TagMinHash,
		Name:   "minhash",
		Family: "similarity",
		Doc:    "MinHash signature (Jaccard similarity between sets)",
		Input:  InputItems,
		Params: []Param{
			{Name: "k", Doc: "signature length", Def: 128, Min: 1, Max: 16384},
		},
		New: func(p Params) (any, error) {
			return lsh.NewMinHash(p.Int("k"), p.Seed), nil
		},
		Decode: decode1[lsh.MinHash](),
		Bind: Bindings{
			Ingest: itemsIngest((*lsh.MinHash).Add),
			Query: query1(func(m *lsh.MinHash, _ url.Values) (map[string]any, error) {
				return map[string]any{"k": m.K()}, nil
			}),
			Merge: merge2[*lsh.MinHash](),
		},
	})

	// SimHash serializes and decodes generically but has no streaming
	// ingest (it hashes dense vectors, not stream items), so it is
	// registered without Bind closures: Decode/inspect work, sketchd
	// refuses to create one. This is the capability gating working as
	// intended, not an omission.
	register(Descriptor{
		Tag:    core.TagSimHash,
		Name:   "simhash",
		Family: "similarity",
		Doc:    "SimHash random-hyperplane LSH (cosine similarity)",
		Input:  InputNone,
		Params: []Param{
			{Name: "d", Doc: "input dimensionality", Def: 64, Min: 1, Max: 4096},
			{Name: "bits", Doc: "signature bits", Def: 64, Min: 1, Max: 64},
		},
		New: func(p Params) (any, error) {
			return lsh.NewSimHash(p.Int("d"), p.Int("bits"), p.Seed), nil
		},
		Decode: decode1[lsh.SimHash](),
	})

	register(Descriptor{
		Tag:    core.TagMorris,
		Name:   "morris",
		Family: "counter",
		Doc:    "Morris approximate counter (log-log bits per count)",
		Input:  InputEvents,
		Params: []Param{
			{Name: "base", Doc: "growth base, > 1 (accuracy/space trade)", Def: 2, Min: 1, Max: 1e6, Float: true},
		},
		New: func(p Params) (any, error) {
			base := p.Float("base")
			if base <= 1 {
				return nil, fmt.Errorf("%w: morris base=%v must be above 1", ErrParams, base)
			}
			return counter.NewMorrisBase(base, p.Seed), nil
		},
		Decode: decode1[counter.Morris](),
		Bind: Bindings{
			Ingest: eventsIngest((*counter.Morris).IncrementN),
			Query: query1(func(m *counter.Morris, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"count":    m.Count(),
					"exponent": m.Exponent(),
					"base":     m.Base(),
				}, nil
			}),
			Merge: merge2[*counter.Morris](),
		},
	})

	register(Descriptor{
		Tag:    core.TagNelsonYu,
		Name:   "nelsonyu",
		Family: "counter",
		Doc:    "Nelson–Yu optimal approximate counter ((ε,δ) guarantees)",
		Input:  InputEvents,
		Params: []Param{
			{Name: "eps", Doc: "relative error, in (0,1)", Def: 0.05, Min: 0, Max: 1, Float: true},
			{Name: "delta", Doc: "failure probability, in (0,1)", Def: 0.01, Min: 0, Max: 1, Float: true},
		},
		New: func(p Params) (any, error) {
			eps, delta := p.Float("eps"), p.Float("delta")
			if eps == 0 {
				eps = 0.05
			}
			if delta == 0 {
				delta = 0.01
			}
			if eps >= 1 || delta >= 1 {
				return nil, fmt.Errorf("%w: nelsonyu eps=%v delta=%v out of (0,1)", ErrParams, eps, delta)
			}
			return counter.NewNelsonYu(eps, delta, p.Seed), nil
		},
		Decode: decode1[counter.NelsonYu](),
		Bind: Bindings{
			Ingest: eventsIngest((*counter.NelsonYu).IncrementN),
			Query: query1(func(c *counter.NelsonYu, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"count":       c.Count(),
					"repetitions": c.Repetitions(),
				}, nil
			}),
			Merge: merge2[*counter.NelsonYu](),
		},
	})

	register(Descriptor{
		Tag:    core.TagAMS,
		Name:   "ams",
		Family: "moments",
		Doc:    "AMS sketch (F2 / join-size estimation, turnstile items)",
		Input:  InputSignedItems,
		Params: []Param{
			{Name: "groups", Doc: "median groups", Def: 9, Min: 1, Max: 256},
			{Name: "per_group", Doc: "averaged estimators per group", Def: 256, Min: 1, Max: 1 << 16},
		},
		New: func(p Params) (any, error) {
			return ams.New(p.Int("groups"), p.Int("per_group"), p.Seed), nil
		},
		Decode: decode1[ams.Sketch](),
		Bind: Bindings{
			Ingest: signedIngest((*ams.Sketch).Add),
			Query: query1(func(s *ams.Sketch, _ url.Values) (map[string]any, error) {
				return map[string]any{"f2": s.F2(), "n": s.N()}, nil
			}),
			Merge: merge2[*ams.Sketch](),
		},
	})

	register(Descriptor{
		Tag:    core.TagGraphSketch,
		Name:   "graphsketch",
		Family: "graph",
		Doc:    "AGM graph sketch (connectivity from L0-sampled cut edges)",
		Input:  InputEdges,
		Params: []Param{
			{Name: "vertices", Doc: "vertex count n", Def: 1024, Min: 1, Max: 1 << 14},
			{Name: "rounds", Doc: "independent Borůvka rounds", Def: 12, Min: 1, Max: 64},
		},
		New: func(p Params) (any, error) {
			n, rounds := p.Int("vertices"), p.Int("rounds")
			if n*rounds > 1<<18 {
				return nil, fmt.Errorf("%w: graphsketch %d vertices x %d rounds over the %d sampler budget",
					ErrParams, n, rounds, 1<<18)
			}
			return graphsketch.New(n, rounds, p.Seed), nil
		},
		Decode: decode1[graphsketch.Sketch](),
		Bind: Bindings{
			Ingest: graphEdgeIngest,
			Query: query1(func(s *graphsketch.Sketch, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"vertices":   s.N(),
					"rounds":     s.Rounds(),
					"components": s.ComponentCount(),
				}, nil
			}),
			Merge: merge2[*graphsketch.Sketch](),
		},
	})
}

// graphEdgeIngest parses "u\tv" edge lines, validating both endpoints
// against the sketch's vertex range before any update (AddEdge panics
// on out-of-range or self-loop edges).
var graphEdgeIngest = parsedIngest(
	func(s *graphsketch.Sketch, item []byte) (int, int, error) {
		tab := LastTab(item)
		if tab < 0 {
			return 0, 0, fmt.Errorf("%w: edge %q: expect u\\tv", ErrInput, item)
		}
		u64, err1 := ParseWeight(item[:tab])
		v64, err2 := ParseWeight(item[tab+1:])
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("%w: edge %q: expect decimal vertex ids", ErrInput, item)
		}
		u, v := int(u64), int(v64)
		if u >= s.N() || v >= s.N() || u == v {
			return 0, 0, fmt.Errorf("%w: edge %q: vertices must be distinct and below %d", ErrInput, item, s.N())
		}
		return u, v, nil
	},
	each((*graphsketch.Sketch).AddEdge))
