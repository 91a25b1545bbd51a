package registry

import (
	"fmt"
	"net/url"

	"repro/internal/bloom"
	"repro/internal/concurrent"
	"repro/internal/core"
)

// blockedBloomShape resolves the blocked filter's m/k/n/fpr parameter
// convention (explicit m+k wins; otherwise n/fpr sizing with the same
// defaults as classic bloom).
func blockedBloomShape(p Params) (m uint64, k int, n uint64, fpr float64, err error) {
	if m = p.Uint64("m"); m != 0 {
		k = p.Int("k")
		if k < 1 {
			return 0, 0, 0, 0, fmt.Errorf("%w: blockedbloom m=%d needs k in [1,64]", ErrParams, m)
		}
		return m, k, 0, 0, nil
	}
	n, fpr = p.Uint64("n"), p.Float("fpr")
	if n == 0 {
		n = 1_000_000
	}
	if fpr == 0 {
		fpr = 0.01
	}
	if fpr >= 1 {
		return 0, 0, 0, 0, fmt.Errorf("%w: blockedbloom fpr=%v must be below 1", ErrParams, fpr)
	}
	return 0, 0, n, fpr, nil
}

func init() {
	atomicBlockedBloom := func(p Params) (any, error) {
		m, k, n, fpr, err := blockedBloomShape(p)
		if err != nil {
			return nil, err
		}
		if m == 0 {
			shape := bloom.NewBlockedWithEstimates(n, fpr, p.Seed)
			m, k = shape.M(), shape.K()
		}
		return concurrent.NewAtomicBlockedBloom(m, k, p.Seed), nil
	}

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
			m, k, n, fpr, err := blockedBloomShape(p)
			if err != nil {
				return nil, err
			}
			if m != 0 {
				return bloom.NewBlocked(m, k, p.Seed), nil
			}
			return bloom.NewBlockedWithEstimates(n, fpr, p.Seed), nil
		},
		NewServing:         atomicBlockedBloom,
		NewServingBuffered: bufferedOver(atomicBlockedBloom, concurrent.BufferBlockedBloom),
		Decode:             decode1[bloom.BlockedFilter](),
		MergeWire:          wireMerge("blockedbloom", bloom.BlockedWire, core.OrWords),
		// The plain, atomic and buffered filters share the batch entry point
		// and the membership reads; only the plain one also reports what
		// costs a scan of every word, which the lock-free holders skip.
		Bind: Bindings{
			Ingest: batchItemsIngest(itemBatcher.AddBatch),
			Query: query1(func(f interface {
				Contains(item []byte) bool
				M() uint64
				K() int
				N() uint64
			}, params url.Values) (map[string]any, error) {
				s, scans := f.(interface {
					Blocks() uint64
					FillRatio() float64
					EstimatedFPR() float64
				})
				if item := params.Get("item"); item != "" {
					m := map[string]any{"contains": f.Contains([]byte(item))}
					if scans {
						m["fill_ratio"] = s.FillRatio()
					}
					return m, nil
				}
				m := map[string]any{"m": f.M(), "k": f.K(), "n": f.N()}
				if scans {
					m["blocks"], m["fill_ratio"], m["estimated_fpr"] = s.Blocks(), s.FillRatio(), s.EstimatedFPR()
				}
				return m, nil
			}),
			Merge: merge2[*bloom.BlockedFilter](),
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
