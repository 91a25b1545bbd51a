package registry

import (
	"fmt"
	"net/url"
	"slices"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashx"
)

// blockedBloomShape resolves the blocked filter's m/k/n/fpr parameter
// convention (explicit m+k wins; otherwise n/fpr sizing with the same
// defaults as classic bloom) to the m and k bloom.BlockedShape sizes,
// which every instance is built at: nothing is allocated to learn them.
func blockedBloomShape(p Params) (uint64, int, error) {
	m, k, n, fpr := p.Uint64("m"), p.Int("k"), p.Uint64("n"), p.Float("fpr")
	switch {
	case m != 0 && k < 1:
		return 0, 0, fmt.Errorf("%w: blockedbloom m=%d needs k in [1,64]", ErrParams, m)
	case m == 0 && fpr >= 1:
		return 0, 0, fmt.Errorf("%w: blockedbloom fpr=%v must be below 1", ErrParams, fpr)
	}
	if n == 0 {
		n = 1_000_000
	}
	if fpr == 0 {
		fpr = 0.01
	}
	m, k = bloom.BlockedShape(m, k, n, fpr)
	return m, k, nil
}

func init() {
	register(Descriptor{
		Tag:    core.TagBloom,
		Name:   "bloom",
		Family: "membership",
		Doc:    "Bloom filter (no false negatives, tunable FPR)",
		Input:  InputItems,
		Params: []Param{
			{Name: "m", Doc: "bit count (overrides n/fpr sizing)", Def: 0, Min: 0, Max: 1 << 33},
			{Name: "k", Doc: "hash functions (with m)", Def: 0, Min: 0, Max: 64},
			{Name: "n", Doc: "expected items (default 1e6)", Def: 0, Min: 0, Max: 1 << 30},
			{Name: "fpr", Doc: "target false-positive rate (default 0.01)", Def: 0, Min: 0, Max: 1, Float: true},
		},
		New: func(p Params) (any, error) {
			if m := p.Uint64("m"); m != 0 {
				k := p.Int("k")
				if k < 1 {
					return nil, fmt.Errorf("%w: bloom m=%d needs k in [1,64]", ErrParams, m)
				}
				return bloom.New(m, k, p.Seed), nil
			}
			n, fpr := p.Uint64("n"), p.Float("fpr")
			if n == 0 {
				n = 1_000_000
			}
			if fpr == 0 {
				fpr = 0.01
			}
			if fpr >= 1 {
				return nil, fmt.Errorf("%w: bloom fpr=%v must be below 1", ErrParams, fpr)
			}
			return bloom.NewWithEstimates(n, fpr, p.Seed), nil
		},
		Decode:    decode1[bloom.Filter](),
		MergeWire: wireMerge("bloom", bloom.Wire, core.OrWords),
		Bind: Bindings{
			Ingest: batchItemsIngest((*bloom.Filter).AddBatch),
			Query: query1(func(f *bloom.Filter, params url.Values) (map[string]any, error) {
				if item := params.Get("item"); item != "" {
					return map[string]any{
						"contains":   f.Contains([]byte(item)),
						"fill_ratio": f.FillRatio(),
					}, nil
				}
				return map[string]any{
					"m":             f.M(),
					"k":             f.K(),
					"n":             f.N(),
					"fill_ratio":    f.FillRatio(),
					"estimated_fpr": f.EstimatedFPR(),
				}, nil
			}),
			Merge: merge2[*bloom.Filter](),
		},
	})

	register(Descriptor{
		Tag:    core.TagBlockedBloom,
		Name:   "blockedbloom",
		Family: "membership",
		Doc:    "cache-line-blocked Bloom filter (one 512-bit block per item; faster, slightly higher FPR)",
		Input:  InputItems,
		Params: []Param{
			{Name: "m", Doc: "bit count, rounded up to 512-bit blocks (overrides n/fpr sizing)", Def: 0, Min: 0, Max: 1 << 33},
			{Name: "k", Doc: "bit probes per block (with m)", Def: 0, Min: 0, Max: 64},
			{Name: "n", Doc: "expected items (default 1e6)", Def: 0, Min: 0, Max: 1 << 30},
			{Name: "fpr", Doc: "target false-positive rate before blocking penalty (default 0.01)", Def: 0, Min: 0, Max: 1, Float: true},
		},
		New: func(p Params) (any, error) {
			m, k, err := blockedBloomShape(p)
			if err != nil {
				return nil, err
			}
			return bloom.NewBlocked(m, k, p.Seed), nil
		},
		Kernel:    kernelOf((*bloom.BlockedFilter).AddHashBatch),
		Decode:    decode1[bloom.BlockedFilter](),
		MergeWire: wireMerge("blockedbloom", bloom.BlockedWire, core.OrWords),
		Bind: Bindings{
			Ingest: hashedIngest(itemHash, (*bloom.BlockedFilter).AddHashBatch),
			// A point query reads one block; what costs a scan of every
			// word is in the summary alone.
			Query: query1(func(f *bloom.BlockedFilter, params url.Values) (map[string]any, error) {
				if item := params.Get("item"); item != "" {
					return map[string]any{"contains": f.Contains([]byte(item))}, nil
				}
				return map[string]any{
					"m":             f.M(),
					"k":             f.K(),
					"n":             f.N(),
					"blocks":        f.Blocks(),
					"fill_ratio":    f.FillRatio(),
					"estimated_fpr": f.EstimatedFPR(),
				}, nil
			}),
			Merge: merge2[*bloom.BlockedFilter](),
		},
		// A point query projects to the k bits it probes; the cell-wise
		// sum of the shards' bits is nonzero wherever their OR is set.
		Project: func(inst any, query url.Values) (*Projection, error) {
			f, _, err := cast[*bloom.BlockedFilter](inst)
			item := query.Get("item")
			if err != nil || item == "" {
				return nil, err
			}
			shape := hashx.XXHash64String(fmt.Sprint(f.Blocks(), f.K(), f.Seed()), 0)
			return &Projection{Shape: shape, N: f.N(), Cells: f.AppendProbes(nil, []byte(item))}, nil
		},
		Finish: func(p *Projection, _ url.Values) (map[string]any, error) {
			return map[string]any{"contains": !slices.Contains(p.Cells, 0)}, nil
		},
	})

	register(Descriptor{
		Tag:    core.TagCountingBloom,
		Name:   "countingbloom",
		Family: "membership",
		Doc:    "counting Bloom filter (membership with deletions)",
		Input:  InputItems,
		Params: []Param{
			{Name: "m", Doc: "counter count", Def: 1 << 20, Min: 1, Max: 1 << 28},
			{Name: "k", Doc: "hash functions", Def: 4, Min: 1, Max: 64},
		},
		New: func(p Params) (any, error) {
			return bloom.NewCounting(p.Uint64("m"), p.Int("k"), p.Seed), nil
		},
		Decode: decode1[bloom.CountingFilter](),
		Bind: Bindings{
			Ingest: itemsIngest((*bloom.CountingFilter).Add),
			Query: query1(func(f *bloom.CountingFilter, params url.Values) (map[string]any, error) {
				if item := params.Get("item"); item != "" {
					return map[string]any{"contains": f.Contains([]byte(item))}, nil
				}
				return map[string]any{"n": f.N(), "bytes": f.SizeBytes()}, nil
			}),
			Merge: merge2[*bloom.CountingFilter](),
		},
	})
}
