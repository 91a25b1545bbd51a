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

// countMinShape validates the shared width/depth/fused parameter
// convention of the countmin constructors (plain and serving must
// agree so WAL replay restores identical addressing).
func countMinShape(p Params) (width, depth int, fused bool, err error) {
	width, depth, fused = p.Int("width"), p.Int("depth"), p.Int("fused") == 1
	if width*depth > 1<<26 {
		return 0, 0, false, fmt.Errorf("%w: countmin shape %dx%d", ErrParams, width, depth)
	}
	if fused && depth > 21 {
		return 0, 0, false, fmt.Errorf("%w: fused countmin depth %d must be <= 21", ErrParams, depth)
	}
	return width, depth, fused, nil
}

func init() {
	atomicCountMin := func(p Params) (any, error) {
		width, depth, fused, err := countMinShape(p)
		if err != nil {
			return nil, err
		}
		if fused {
			return concurrent.NewAtomicCountMinFused(width, depth, p.Seed), nil
		}
		return concurrent.NewAtomicCountMin(width, depth, p.Seed), nil
	}
	// The plain, atomic and buffered instances answer the same keys from
	// the read methods they share.
	countMinQuery := query1(func(c interface {
		Estimate(item []byte) uint64
		N() uint64
		Width() int
		Depth() int
	}, params url.Values) (map[string]any, error) {
		if item := params.Get("item"); item != "" {
			return map[string]any{"estimate": c.Estimate([]byte(item)), "n": c.N()}, nil
		}
		return map[string]any{"n": c.N(), "width": c.Width(), "depth": c.Depth()}, nil
	})

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
		New: func(p Params) (any, error) {
			width, depth, fused, err := countMinShape(p)
			if err != nil {
				return nil, err
			}
			if fused {
				return frequency.NewCountMinFused(width, depth, p.Seed), nil
			}
			return frequency.NewCountMin(width, depth, p.Seed), nil
		},
		NewServing:         atomicCountMin,
		NewServingBuffered: bufferedOver(atomicCountMin, concurrent.BufferCountMin),
		Decode:             decode1[frequency.CountMin](),
		Bind: Bindings{
			Ingest: weightedIngest((*frequency.CountMin).Add),
			Query:  countMinQuery,
			Merge:  merge2((*frequency.CountMin).Merge),
		},
		Serve: &Bindings{
			Ingest: servingIngest[*concurrent.BufferedCountMin, *concurrent.BufferedCountMinWriter](
				weightedIngest((*concurrent.AtomicCountMin).Add),
				weightedIngest((*concurrent.BufferedCountMinWriter).Add)),
			Query: withStaleness(countMinQuery),
			Merge: merge2(merger[*frequency.CountMin].Merge),
		},
		// A point query reads depth cells, addressed identically by the
		// plain, atomic and buffered instances.
		Project: func(inst any, query url.Values) (*Projection, error) {
			c, err := cast[interface {
				AppendCells(dst []uint64, item []byte) []uint64
				N() uint64
				Width() int
				Depth() int
				Seed() uint64
				Fused() bool
			}](inst)
			item := query.Get("item")
			if err != nil || item == "" {
				return nil, err
			}
			plain, _ := inst.(*frequency.CountMin)
			if plain != nil && plain.Conservative() {
				return nil, nil // conservative counters are not linear: no merge, no projection
			}
			cells := c.AppendCells(nil, []byte(item)) // before N: this is where a buffered instance syncs
			return cellProjection(c.Width(), c.Depth(), c.Seed(), c.Fused(), plain != nil && !plain.Derived(), c.N(), cells), nil
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
		New: func(p Params) (any, error) {
			width, depth, fused := p.Int("width"), p.Int("depth"), p.Int("fused") == 1
			if width*depth > 1<<26 {
				return nil, fmt.Errorf("%w: countsketch shape %dx%d", ErrParams, width, depth)
			}
			if fused {
				if depth > 21 {
					return nil, fmt.Errorf("%w: fused countsketch depth %d must be <= 21", ErrParams, depth)
				}
				return frequency.NewCountSketchFused(width, depth, p.Seed), nil
			}
			return frequency.NewCountSketch(width, depth, p.Seed), nil
		},
		Decode: decode1[frequency.CountSketch](),
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
			Merge: merge2((*frequency.CountSketch).Merge),
		},
		// Cells travel sign-corrected (two's complement in the carrier's
		// uint64s), so Finish needs no hash state: it is their median.
		Project: func(inst any, query url.Values) (*Projection, error) {
			c, err := cast[*frequency.CountSketch](inst)
			item := query.Get("item")
			if err != nil || item == "" {
				return nil, err
			}
			cells := cellsAs[int64, uint64](c.AppendCells(nil, []byte(item)))
			return cellProjection(c.Width(), c.Depth(), c.Seed(), c.Fused(), !c.Derived(), c.N(), cells), nil
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
			Merge: merge2((*frequency.MisraGries).Merge),
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
			Merge: merge2((*frequency.SpaceSaving).Merge),
		},
	})
}
