package registry

import (
	"fmt"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/quantile"
)

// qParam parses the ?q= rank parameter (default 0.5).
func qParam(params url.Values) (float64, error) {
	q := 0.5
	if qs := params.Get("q"); qs != "" {
		v, err := strconv.ParseFloat(qs, 64)
		if err != nil || v < 0 || v > 1 {
			return 0, fmt.Errorf("%w: quantile %q out of [0,1]", ErrParams, qs)
		}
		q = v
	}
	return q, nil
}

// quantileQuery answers ?q= from the read methods every quantile family
// has, and adds the keys an instance has the method for: the exact
// extremes, the rank-error figure, the integer domain.
func quantileQuery[V float64 | uint64]() func(any, url.Values) (map[string]any, error) {
	return query1(func(s interface {
		Quantile(q float64) V
		N() uint64
	}, params url.Values) (map[string]any, error) {
		q, err := qParam(params)
		if err != nil {
			return nil, err
		}
		out := map[string]any{"q": q, "quantile": s.Quantile(q), "n": s.N()}
		if r, ok := s.(interface {
			Min() float64
			Max() float64
		}); ok {
			out["min"], out["max"] = r.Min(), r.Max()
		}
		if e, ok := s.(interface{ Eps() float64 }); ok {
			out["eps"] = e.Eps()
		}
		if d, ok := s.(interface{ LogU() uint8 }); ok {
			out["logu"] = d.LogU()
		}
		return out, nil
	})
}

func init() {
	register(Descriptor{
		Tag:    core.TagKLL,
		Name:   "kll",
		Family: "quantile",
		Doc:    "KLL quantile sketch (relative-compactor hierarchy)",
		Input:  InputFloats,
		Params: []Param{
			{Name: "k", Doc: "top-level capacity", Def: 200, Min: 8, Max: 1 << 16},
		},
		New: func(p Params) (any, error) {
			return quantile.NewKLL(p.Int("k"), p.Seed), nil
		},
		Decode: decode1[quantile.KLL](),
		Bind: Bindings{
			Ingest: floatIngest((*quantile.KLL).Add),
			Query:  quantileQuery[float64](),
			Merge:  merge2[*quantile.KLL](),
		},
	})

	register(Descriptor{
		Tag:    core.TagREQ,
		Name:   "req",
		Family: "quantile",
		Doc:    "REQ sketch (relative-error quantiles, accurate tails)",
		Input:  InputFloats,
		Params: []Param{
			{Name: "k", Doc: "section size (even; odd is bumped)", Def: 32, Min: 4, Max: 1 << 16},
		},
		New: func(p Params) (any, error) {
			return quantile.NewREQ(p.Int("k"), p.Seed), nil
		},
		Decode: decode1[quantile.REQ](),
		Bind: Bindings{
			Ingest: floatIngest((*quantile.REQ).Add),
			Query:  quantileQuery[float64](),
			Merge:  merge2[*quantile.REQ](),
		},
	})

	register(Descriptor{
		Tag:    core.TagGK,
		Name:   "gk",
		Family: "quantile",
		Doc:    "Greenwald–Khanna quantile summary (deterministic ε-rank)",
		Input:  InputFloats,
		Params: []Param{
			{Name: "eps", Doc: "rank error bound, in (0,1)", Def: 0.01, Min: 0, Max: 1, Float: true},
		},
		New: func(p Params) (any, error) {
			eps := p.Float("eps")
			if eps <= 0 || eps >= 1 {
				return nil, fmt.Errorf("%w: gk eps=%v out of (0,1)", ErrParams, eps)
			}
			return quantile.NewGK(eps), nil
		},
		Decode: decode1[quantile.GK](),
		Bind: Bindings{
			Ingest: floatIngest((*quantile.GK).Add),
			Query:  quantileQuery[float64](),
			Merge:  merge2[*quantile.GK](),
		},
	})

	register(Descriptor{
		Tag:    core.TagTDigest,
		Name:   "tdigest",
		Family: "quantile",
		Doc:    "t-digest (centroid clustering, accurate extreme quantiles)",
		Input:  InputFloats,
		Params: []Param{
			{Name: "compression", Doc: "centroid budget δ", Def: 100, Min: 10, Max: 1e6, Float: true},
		},
		New: func(p Params) (any, error) {
			return quantile.NewTDigest(p.Float("compression")), nil
		},
		Decode: decode1[quantile.TDigest](),
		Bind: Bindings{
			Ingest: floatIngest((*quantile.TDigest).Add),
			Query:  quantileQuery[float64](),
			Merge:  merge2[*quantile.TDigest](),
		},
	})

	register(Descriptor{
		Tag:    core.TagMRL,
		Name:   "mrl",
		Family: "quantile",
		Doc:    "Manku–Rajagopalan–Lindsay quantile sketch (b buffers of k)",
		Input:  InputFloats,
		Params: []Param{
			{Name: "b", Doc: "buffer count", Def: 8, Min: 2, Max: 64},
			{Name: "k", Doc: "buffer capacity", Def: 256, Min: 2, Max: 1 << 16},
		},
		New: func(p Params) (any, error) {
			return quantile.NewMRL(p.Int("b"), p.Int("k"), p.Seed), nil
		},
		Decode: decode1[quantile.MRL](),
		Bind: Bindings{
			// MRL's collapse scheme has no merge operation — the
			// descriptor leaves Merge nil and the server gates the
			// endpoint off (405).
			Ingest: floatIngest((*quantile.MRL).Add),
			Query:  quantileQuery[float64](),
		},
	})

	register(Descriptor{
		Tag:    core.TagQDigest,
		Name:   "qdigest",
		Family: "quantile",
		Doc:    "q-digest (bounded integer domain, sensor-network merging)",
		Input:  InputUintValues,
		Params: []Param{
			{Name: "logu", Doc: "domain exponent: values in [0,2^logu)", Def: 20, Min: 1, Max: 32},
			{Name: "k", Doc: "compression factor", Def: 256, Min: 1, Max: 1 << 20},
		},
		New: func(p Params) (any, error) {
			return quantile.NewQDigest(p.Uint8("logu"), p.Uint64("k")), nil
		},
		Decode: decode1[quantile.QDigest](),
		Bind: Bindings{
			Ingest: uintValuesIngest(
				func(s *quantile.QDigest, v uint64) error {
					if v >= 1<<s.LogU() {
						return fmt.Errorf("value %d outside domain [0,2^%d)", v, s.LogU())
					}
					return nil
				},
				(*quantile.QDigest).Add,
			),
			Query: quantileQuery[uint64](),
			Merge: merge2[*quantile.QDigest](),
		},
	})
}
