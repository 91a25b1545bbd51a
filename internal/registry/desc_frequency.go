package registry

import (
	"fmt"
	"net/url"
	"strconv"

	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/frequency"
)

// topEntries renders a heavy-hitter table's entries, capped by the
// optional ?k= query parameter (default 32).
func topEntries(params url.Values, entries []frequency.Entry) ([]map[string]any, error) {
	limit := 32
	if ks := params.Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("%w: k %q must be a positive integer", ErrParams, ks)
		}
		limit = v
	}
	if len(entries) > limit {
		entries = entries[:limit]
	}
	out := make([]map[string]any, len(entries))
	for i, e := range entries {
		out[i] = map[string]any{"item": e.Item, "count": e.Count}
	}
	return out, nil
}

// countMinShape turns the width/depth/fused parameter convention the
// countmin and countsketch constructors share into a built layout
// (plain and serving must agree so WAL replay restores identical
// addressing). frequency.Layout is where a shape is valid or not; the
// cell budget is the server's.
func countMinShape(p Params) (frequency.Layout, error) {
	l := frequency.Layout{Width: p.Int("width"), Depth: p.Int("depth"), Seed: p.Seed}
	if p.Int("fused") == 1 {
		l.Mode = frequency.Fused
	}
	l, err := l.Build()
	if err != nil {
		return l, fmt.Errorf("%w: %v", ErrParams, err)
	}
	if l.Len() > 1<<26 {
		return l, fmt.Errorf("%w: shape %dx%d", ErrParams, l.Width, l.Depth)
	}
	return l, nil
}

// shaped is a constructor over a validated layout.
func shaped[T any](build func(frequency.Layout) T) func(Params) (any, error) {
	return func(p Params) (any, error) {
		l, err := countMinShape(p)
		if err != nil {
			return nil, err
		}
		return build(l), nil
	}
}

func init() {
	register(Descriptor{
		Tag:    core.TagCountMin,
		Name:   "countmin",
		Family: "frequency",
		Doc:    "Count-Min sketch (biased-up point frequency estimates)",
		Input:  InputWeightedItems,
		Params: []Param{
			{Name: "width", Doc: "counters per row", Def: 2048, Min: 1, Max: 1 << 24},
			{Name: "depth", Doc: "hash rows", Def: 4, Min: 1, Max: 64},
			{Name: "fused", Doc: "1 = fused cache-line layout (depth <= 21)", Def: 0, Min: 0, Max: 1},
		},
		// Served as the plain sketch behind the locked holder: a batch is
		// parsed and hashed outside the lock and applied by the weighted
		// batch kernel under it. The atomic table is the buffered global.
		New:                shaped(frequency.NewCountMinLayout),
		NewServingBuffered: bufferedOver(shaped(concurrent.NewAtomicCountMinLayout), concurrent.BufferCountMin),
		Decode:             decode1[frequency.CountMin](),
		MergeWire:          wireMerge("countmin", frequency.CountMinWire, core.AddWords),
		// The plain, atomic and buffered instances share the batch kernel's
		// entry point and the read methods.
		Bind: Bindings{
			Ingest: hashedIngest(weightedHashBatcher.AddWeightedHashBatch),
			Query: query1(func(c interface {
				Estimate(item []byte) uint64
				N() uint64
				Width() int
				Depth() int
			}, params url.Values) (map[string]any, error) {
				if item := params.Get("item"); item != "" {
					return map[string]any{"estimate": c.Estimate([]byte(item)), "n": c.N()}, nil
				}
				return map[string]any{"n": c.N(), "width": c.Width(), "depth": c.Depth()}, nil
			}),
			Merge: merge2[*frequency.CountMin](),
		},
		// A point query reads depth cells, addressed identically by the
		// plain, atomic and buffered instances.
		Project: func(inst any, query url.Values) (*Projection, error) {
			c, _, err := cast[interface {
				AppendCells(dst []uint64, item []byte) []uint64
				N() uint64
				Layout() frequency.Layout
			}](inst)
			item := query.Get("item")
			if err != nil || item == "" {
				return nil, err
			}
			if plain, ok := inst.(*frequency.CountMin); ok && plain.Conservative() {
				return nil, nil // conservative counters are not linear: no merge, no projection
			}
			cells := c.AppendCells(nil, []byte(item)) // before N: this is where a buffered instance syncs
			return cellProjection(c.Layout(), c.N(), cells), nil
		},
		Finish: func(p *Projection, _ url.Values) (map[string]any, error) {
			return map[string]any{"estimate": frequency.MinCells(p.Cells), "n": p.N}, nil
		},
	})

	register(Descriptor{
		Tag:    core.TagCountSketch,
		Name:   "countsketch",
		Family: "frequency",
		Doc:    "Count-Sketch (unbiased signed frequency estimates, F2)",
		Input:  InputSignedItems,
		Params: []Param{
			{Name: "width", Doc: "counters per row", Def: 2048, Min: 1, Max: 1 << 24},
			{Name: "depth", Doc: "hash rows (odd; even is bumped)", Def: 5, Min: 1, Max: 63},
			{Name: "fused", Doc: "1 = fused cache-line layout (depth <= 21)", Def: 0, Min: 0, Max: 1},
		},
		// The sketch rounds an even depth up by one; both caps that could
		// then refuse it (21 fused, the schema's 63 otherwise) are odd, so
		// a shape valid as given is valid rounded.
		New:       shaped(frequency.NewCountSketchLayout),
		Decode:    decode1[frequency.CountSketch](),
		MergeWire: wireMerge("countsketch", frequency.CountSketchWire, core.AddWords),
		Bind: Bindings{
			Ingest: signedIngest((*frequency.CountSketch).Add),
			Query: query1(func(c *frequency.CountSketch, params url.Values) (map[string]any, error) {
				if item := params.Get("item"); item != "" {
					return map[string]any{"estimate": c.Estimate([]byte(item)), "n": c.N()}, nil
				}
				return map[string]any{
					"n":     c.N(),
					"width": c.Width(),
					"depth": c.Depth(),
					"f2":    c.F2Estimate(),
				}, nil
			}),
			Merge: merge2[*frequency.CountSketch](),
		},
		// Cells travel sign-corrected (two's complement in the carrier's
		// uint64s), so Finish needs no hash state: it is their median.
		Project: func(inst any, query url.Values) (*Projection, error) {
			c, _, err := cast[*frequency.CountSketch](inst)
			item := query.Get("item")
			if err != nil || item == "" {
				return nil, err
			}
			cells := cellsAs[int64, uint64](c.AppendCells(nil, []byte(item)))
			return cellProjection(c.Layout(), c.N(), cells), nil
		},
		Finish: func(p *Projection, _ url.Values) (map[string]any, error) {
			return map[string]any{"estimate": frequency.MedianCells(cellsAs[uint64, int64](p.Cells)), "n": p.N}, nil
		},
	})

	register(Descriptor{
		Tag:    core.TagMisraGries,
		Name:   "misragries",
		Family: "frequency",
		Doc:    "Misra–Gries heavy hitters (k counters, deterministic)",
		Input:  InputWeightedItems,
		Params: []Param{
			{Name: "k", Doc: "tracked counters", Def: 64, Min: 1, Max: 1 << 20},
		},
		New: func(p Params) (any, error) {
			return frequency.NewMisraGries(p.Int("k")), nil
		},
		Decode: decode1[frequency.MisraGries](),
		Bind: Bindings{
			Ingest: stringWeightedIngest((*frequency.MisraGries).Add),
			Query: query1(func(m *frequency.MisraGries, params url.Values) (map[string]any, error) {
				if item := params.Get("item"); item != "" {
					return map[string]any{
						"estimate":    m.Estimate(item),
						"error_bound": m.ErrorBound(),
						"n":           m.N(),
					}, nil
				}
				top, err := topEntries(params, m.Entries())
				if err != nil {
					return nil, err
				}
				return map[string]any{"n": m.N(), "k": m.K(), "entries": top}, nil
			}),
			Merge: merge2[*frequency.MisraGries](),
		},
	})

	register(Descriptor{
		Tag:    core.TagSpaceSaving,
		Name:   "spacesaving",
		Family: "frequency",
		Doc:    "SpaceSaving heavy hitters (k counters with overestimates)",
		Input:  InputWeightedItems,
		Params: []Param{
			{Name: "k", Doc: "tracked counters", Def: 64, Min: 1, Max: 1 << 20},
		},
		New: func(p Params) (any, error) {
			return frequency.NewSpaceSaving(p.Int("k")), nil
		},
		Decode: decode1[frequency.SpaceSaving](),
		Bind: Bindings{
			Ingest: stringWeightedIngest((*frequency.SpaceSaving).Add),
			Query: query1(func(s *frequency.SpaceSaving, params url.Values) (map[string]any, error) {
				if item := params.Get("item"); item != "" {
					return map[string]any{
						"estimate":   s.Estimate(item),
						"guaranteed": s.GuaranteedCount(item),
						"n":          s.N(),
					}, nil
				}
				top, err := topEntries(params, s.Entries())
				if err != nil {
					return nil, err
				}
				return map[string]any{"n": s.N(), "k": s.K(), "entries": top}, nil
			}),
			Merge: merge2[*frequency.SpaceSaving](),
		},
	})
}
