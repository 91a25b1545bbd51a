package registry

import (
	"net/url"

	"repro/internal/core"
	"repro/internal/robust"
)

func init() {
	register(Descriptor{
		Tag:    core.TagRobustDistinct,
		Name:   "robustdistinct",
		Family: "robust",
		Doc: "adversarially robust distinct counter: sketch-switching over lambda " +
			"independent HLL copies, with optional noisy (1+rho)-grid release and " +
			"Bernoulli-q subsampled ingest",
		Input: InputItems,
		Params: []Param{
			{Name: "p", Doc: "HLL precision per copy: 2^p registers", Def: 12, Min: 4, Max: 18},
			{Name: "lambda", Doc: "independent copies (robustness horizon)", Def: 8, Min: 1, Max: 1024},
			{Name: "eps", Doc: "switching threshold: output re-bases on (1+eps) drift", Def: 0.05, Min: 0.001, Max: 0.5, Float: true},
			{Name: "rho", Doc: "noisy-release rounding grid (0: exact release)", Def: 0, Min: 0, Max: 0.99, Float: true},
			{Name: "q", Doc: "Bernoulli ingest-admission rate (1: admit everything)", Def: 1, Min: 0.001, Max: 1, Float: true},
		},
		New: func(p Params) (any, error) {
			return robust.NewDefendedDistinct(p.Float("eps"), p.Int("lambda"), p.Uint8("p"),
				p.Seed, p.Float("rho"), p.Float("q")), nil
		},
		Decode: decode1[robust.Distinct](),
		Bind: Bindings{
			Ingest: itemsIngest((*robust.Distinct).Add),
			// The estimate plus the defense's burn-down gauges, so operators
			// can watch an adversarial workload consume copies. Estimate is
			// read first: it may burn a copy, which the gauges then show.
			Query: query1(func(d *robust.Distinct, _ url.Values) (map[string]any, error) {
				return map[string]any{
					"estimate":    d.Estimate(),
					"eps":         d.Eps(),
					"copies":      d.Copies(),
					"copies_used": d.CopiesUsed(),
					"exhausted":   d.Exhausted(),
				}, nil
			}),
			Merge: merge2[*robust.Distinct](),
		},
		QueryMutates: true,
	})
}
