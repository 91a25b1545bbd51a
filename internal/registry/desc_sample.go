package registry

import (
	"net/url"
	"sort"

	"repro/internal/core"
	"repro/internal/sample"
)

// sampleStrings renders up to limit sample items as strings.
func sampleStrings(items [][]byte, limit int) []string {
	if len(items) > limit {
		items = items[:limit]
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = string(it)
	}
	return out
}

func init() {
	register(Descriptor{
		Tag:    core.TagReservoir,
		Name:   "reservoir",
		Family: "sample",
		Doc:    "uniform reservoir sample of k items",
		Input:  InputItems,
		Params: []Param{
			{Name: "k", Doc: "sample capacity", Def: 100, Min: 1, Max: 1 << 20},
		},
		New: func(p Params) (any, error) {
			return sample.NewReservoir(p.Int("k"), p.Seed), nil
		},
		Decode: decode1[sample.Reservoir](),
		Bind: Bindings{
			Ingest: itemsIngest((*sample.Reservoir).Add), // Add copies the item
			Query: query1(func(r *sample.Reservoir, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"n":      r.N(),
					"k":      r.K(),
					"sample": sampleStrings(r.Sample(), 64),
				}, nil
			}),
			Merge: merge2[*sample.Reservoir](),
		},
	})

	register(Descriptor{
		Tag:    core.TagWeightedReservoir,
		Name:   "weightedreservoir",
		Family: "sample",
		Doc:    "Efraimidis–Spirakis weighted reservoir sample",
		Input:  InputWeightedFloatItems,
		Params: []Param{
			{Name: "k", Doc: "sample capacity", Def: 100, Min: 1, Max: 1 << 20},
		},
		New: func(p Params) (any, error) {
			return sample.NewWeightedReservoir(p.Int("k"), p.Seed), nil
		},
		Decode: decode1[sample.WeightedReservoir](),
		Bind: Bindings{
			// A-ES reservoirs are not mergeable (the key streams are
			// per-instance); Merge stays nil.
			Ingest: weightedFloatIngest((*sample.WeightedReservoir).Add), // Add copies the item
			Query: query1(func(r *sample.WeightedReservoir, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"n":      r.N(),
					"k":      r.K(),
					"sample": sampleStrings(r.Sample(), 64),
				}, nil
			}),
		},
	})

	register(Descriptor{
		Tag:    core.TagSparseRecovery,
		Name:   "sparserecovery",
		Family: "sample",
		Doc:    "s-sparse turnstile vector recovery (exact if ≤ s nonzeros)",
		Input:  InputTurnstile,
		Params: []Param{
			{Name: "s", Doc: "recoverable sparsity", Def: 32, Min: 1, Max: 4096},
		},
		New: func(p Params) (any, error) {
			return sample.NewSparseRecovery(p.Int("s"), p.Seed), nil
		},
		Decode: decode1[sample.SparseRecovery](),
		Bind: Bindings{
			Ingest: turnstileIngest((*sample.SparseRecovery).Update),
			Query: query1(func(sr *sample.SparseRecovery, _ url.Values) (map[string]any, error) {
				rec := sr.Recover()
				idx := make([]uint64, 0, len(rec))
				for i := range rec {
					idx = append(idx, i)
				}
				sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
				if len(idx) > 64 {
					idx = idx[:64]
				}
				out := make([]map[string]any, len(idx))
				for i, id := range idx {
					out[i] = map[string]any{"index": id, "weight": rec[id]}
				}
				return map[string]any{"recovered": len(rec), "entries": out}, nil
			}),
			Merge: merge2[*sample.SparseRecovery](),
		},
	})

	register(Descriptor{
		Tag:    core.TagL0SamplerFull,
		Name:   "l0sampler",
		Family: "sample",
		Doc:    "L0 sampler (uniform over nonzero turnstile coordinates)",
		Input:  InputTurnstile,
		Params: []Param{
			{Name: "s", Doc: "per-level sparsity", Def: 12, Min: 1, Max: 1024},
		},
		New: func(p Params) (any, error) {
			return sample.NewL0Sampler(p.Int("s"), p.Seed), nil
		},
		Decode: decode1[sample.L0Sampler](),
		Bind: Bindings{
			Ingest: turnstileIngest((*sample.L0Sampler).Update),
			Query: query1(func(l *sample.L0Sampler, _ url.Values) (map[string]any, error) {
				index, weight, ok := l.Sample()
				res := map[string]any{"ok": ok}
				if ok {
					res["index"] = index
					res["weight"] = weight
				}
				return res, nil
			}),
			Merge: merge2[*sample.L0Sampler](),
		},
	})

	// The original single-level L0 sampler format was superseded in
	// place by TagL0SamplerFull; its tag is tombstoned so it can never
	// be reassigned, and Decode explains why such payloads are
	// undecodable.
	reserve(core.TagL0Sampler, "superseded by the full L0 sampler format, tag 29")
}
