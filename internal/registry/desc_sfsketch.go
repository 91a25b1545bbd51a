package registry

import (
	"fmt"
	"net/url"

	"repro/internal/core"
	"repro/internal/frequency"
)

// sfShape validates the slim/fat shape convention of the sfsketch
// constructor. The fat stage is ratio× the slim width at the same depth
// — the paper's regime, where the fat stage sets the accuracy and the
// slim stage sets the wire bytes.
func sfShape(p Params) (slimWidth, slimDepth, fatWidth, fatDepth int, err error) {
	slimWidth, slimDepth = p.Int("width"), p.Int("depth")
	ratio := p.Int("ratio")
	fatWidth, fatDepth = slimWidth*ratio, slimDepth
	if slimWidth*slimDepth*(1+ratio) > 1<<26 {
		return 0, 0, 0, 0, fmt.Errorf("%w: sfsketch shape %dx%d ratio %d", ErrParams, slimWidth, slimDepth, ratio)
	}
	return slimWidth, slimDepth, fatWidth, fatDepth, nil
}

func init() {
	register(Descriptor{
		Tag:    core.TagSFSketch,
		Name:   "sfsketch",
		Family: "frequency",
		Doc:    "SF-sketch (two-stage Slim-Fat Count-Min: fat updates, slim wire bytes)",
		Input:  InputWeightedItems,
		Params: []Param{
			{Name: "width", Doc: "slim-stage counters per row (the wire dimension)", Def: 512, Min: 1, Max: 1 << 22},
			{Name: "depth", Doc: "hash rows, both stages", Def: 4, Min: 1, Max: 64},
			{Name: "ratio", Doc: "fat-stage width multiplier", Def: 8, Min: 1, Max: 64},
		},
		New: func(p Params) (any, error) {
			sw, sd, fw, fd, err := sfShape(p)
			if err != nil {
				return nil, err
			}
			return frequency.NewSFSketch(sw, sd, fw, fd, p.Seed), nil
		},
		Decode:    decode1[frequency.SFSketch](),
		MergeWire: wireMerge("sfsketch", frequency.SFWire, core.AddWords),
		Bind: Bindings{
			Ingest: hashedIngest(weightedHash, (*frequency.SFSketch).AddWeightedHashBatch),
			Query: query1(func(s *frequency.SFSketch, params url.Values) (map[string]any, error) {
				if item := params.Get("item"); item != "" {
					return map[string]any{
						"estimate":     s.Estimate([]byte(item)),
						"fat_estimate": s.FatEstimate([]byte(item)),
						"n":            s.N(),
					}, nil
				}
				return map[string]any{
					"n":          s.N(),
					"width":      s.Width(),
					"depth":      s.Depth(),
					"fat_width":  s.FatWidth(),
					"fat_depth":  s.FatDepth(),
					"slim_bytes": s.SlimSizeBytes(),
					"slim_only":  s.SlimOnly(),
				}, nil
			}),
			Merge: merge2[*frequency.SFSketch](),
		},
	})
}
