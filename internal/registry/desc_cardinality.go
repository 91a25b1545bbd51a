package registry

import (
	"fmt"
	"net/url"

	"repro/internal/cardinality"
	"repro/internal/core"
)

func init() {
	// The register update over h1; h2, which the item parse computes
	// anyway, is not read.
	hllKernel := func(h *cardinality.HLL, h1s, _ []uint64) { h.AddHashBatch(h1s) }

	register(Descriptor{
		Tag:    core.TagHLL,
		Name:   "hll",
		Family: "cardinality",
		Doc:    "HyperLogLog distinct counter (2^p six-bit registers)",
		Input:  InputItems,
		Params: []Param{
			{Name: "p", Doc: "precision: 2^p registers", Def: 14, Min: 4, Max: 18},
			// Accepted and ignored: it sized the sharded holder sketchd no
			// longer serves, and a create logged with it still recovers.
			{Name: "shards", Doc: "accepted and ignored (once the serving write shards)", Def: 0, Min: 0, Max: 256},
		},
		New: func(p Params) (any, error) {
			return cardinality.NewHLL(p.Uint8("p"), p.Seed), nil
		},
		Kernel:    kernelOf(hllKernel),
		Decode:    decode1[cardinality.HLL](),
		MergeWire: wireMerge("hll", cardinality.HLLWire, cardinality.MergeRegisterWords),
		Bind: Bindings{
			Ingest: hashedIngest(itemHash, hllKernel),
			Query: query1(func(h *cardinality.HLL, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"estimate": h.Estimate(),
					"p":        h.P(),
					"std_err":  cardinality.HLLStandardError(h.P()),
				}, nil
			}),
			Merge: merge2[*cardinality.HLL](),
		},
	})

	register(Descriptor{
		Tag:    core.TagHLLPP,
		Name:   "hllpp",
		Family: "cardinality",
		Doc:    "HyperLogLog++ (sparse mode + bias-corrected dense mode)",
		Input:  InputItems,
		Params: []Param{
			{Name: "p", Doc: "precision: 2^p registers when dense", Def: 14, Min: 4, Max: 18},
		},
		New: func(p Params) (any, error) {
			return cardinality.NewHLLPP(p.Uint8("p"), p.Seed), nil
		},
		Decode: decode1[cardinality.HLLPP](),
		Bind: Bindings{
			Ingest: itemsIngest((*cardinality.HLLPP).Add),
			Query: query1(func(h *cardinality.HLLPP, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"estimate": h.Estimate(),
					"p":        h.P(),
					"sparse":   h.IsSparse(),
				}, nil
			}),
			Merge: merge2[*cardinality.HLLPP](),
		},
	})

	register(Descriptor{
		Tag:    core.TagLogLog,
		Name:   "loglog",
		Family: "cardinality",
		Doc:    "Durand–Flajolet LogLog distinct counter",
		Input:  InputItems,
		Params: []Param{
			{Name: "p", Doc: "precision: 2^p registers", Def: 12, Min: 4, Max: 16},
		},
		New: func(p Params) (any, error) {
			return cardinality.NewLogLog(p.Uint8("p"), p.Seed), nil
		},
		Decode: decode1[cardinality.LogLog](),
		Bind: Bindings{
			Ingest: itemsIngest((*cardinality.LogLog).Add),
			Query: query1(func(l *cardinality.LogLog, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"estimate": l.Estimate(),
					"m":        l.M(),
					"std_err":  l.StandardError(),
				}, nil
			}),
			Merge: merge2[*cardinality.LogLog](),
		},
	})

	register(Descriptor{
		Tag:    core.TagFM,
		Name:   "fm",
		Family: "cardinality",
		Doc:    "Flajolet–Martin distinct counter (m first-zero bitmaps)",
		Input:  InputItems,
		Params: []Param{
			{Name: "m", Doc: "bitmap count (power of two)", Def: 64, Min: 2, Max: 65536},
		},
		New: func(p Params) (any, error) {
			m := p.Int("m")
			if m&(m-1) != 0 {
				return nil, fmt.Errorf("%w: fm m=%d must be a power of two", ErrParams, m)
			}
			return cardinality.NewFM(m, p.Seed), nil
		},
		Decode: decode1[cardinality.FM](),
		Bind: Bindings{
			Ingest: itemsIngest((*cardinality.FM).Add),
			Query: query1(func(f *cardinality.FM, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"estimate": f.Estimate(),
					"m":        f.M(),
					"std_err":  f.StandardError(),
				}, nil
			}),
			Merge: merge2[*cardinality.FM](),
		},
	})

	register(Descriptor{
		Tag:    core.TagKMV,
		Name:   "kmv",
		Family: "cardinality",
		Doc:    "k-minimum-values distinct counter (bottom-k hash sample)",
		Input:  InputItems,
		Params: []Param{
			{Name: "k", Doc: "retained minimum hashes", Def: 1024, Min: 3, Max: 1 << 24},
		},
		New: func(p Params) (any, error) {
			return cardinality.NewKMV(p.Int("k"), p.Seed), nil
		},
		Decode: decode1[cardinality.KMV](),
		Bind: Bindings{
			Ingest: itemsIngest((*cardinality.KMV).Add),
			Query: query1(func(s *cardinality.KMV, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"estimate": s.Estimate(),
					"k":        s.K(),
					"std_err":  s.StandardError(),
				}, nil
			}),
			Merge: merge2[*cardinality.KMV](),
		},
	})

	register(Descriptor{
		Tag:    core.TagTheta,
		Name:   "theta",
		Family: "cardinality",
		Doc:    "theta sketch (bottom-k with set operations)",
		Input:  InputItems,
		Params: []Param{
			{Name: "k", Doc: "nominal retained entries", Def: 4096, Min: 16, Max: 1 << 24},
		},
		New: func(p Params) (any, error) {
			return cardinality.NewTheta(p.Int("k"), p.Seed), nil
		},
		Decode: decode1[cardinality.Theta](),
		Bind: Bindings{
			Ingest: itemsIngest((*cardinality.Theta).Add),
			Query: query1(func(t *cardinality.Theta, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"estimate":   t.Estimate(),
					"retained":   t.Retained(),
					"k":          t.K(),
					"estimating": t.IsEstimationMode(),
				}, nil
			}),
			Merge: merge2[*cardinality.Theta](),
		},
	})
}
