package registry

// The projection contract, checked registry-wide: for every descriptor
// that declares Project, every layout and serving variant, and random
// weighted streams split over 1–5 "shards",
//
//	Finish(Merge(Project(shard_i, q))) == Query(Merge(shard_i), q)
//
// as result maps, exactly — through the same Marshal → Decode → Merge →
// Bind.Query path a coordinator runs for either envelope form.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/frequency"
)

// projVariant is one way to build a projecting family's instance, with
// the ingest binding that drives it.
type projVariant struct {
	name   string
	build  func(seed uint64) (any, error)
	ingest func(inst any, items [][]byte) error
}

// kwiseBuilders are the row-hash layouts no creation parameter reaches.
var kwiseBuilders = map[string]func(seed uint64) any{
	"countmin": func(seed uint64) any {
		return frequency.NewCountMinLayout(frequency.Layout{Width: 96, Depth: 5, Mode: frequency.KWise, Seed: seed})
	},
	"countsketch": func(seed uint64) any {
		return frequency.NewCountSketchLayout(frequency.Layout{Width: 96, Depth: 5, Mode: frequency.KWise, Seed: seed})
	},
}

func projVariants(d *Descriptor) []projVariant {
	var out []projVariant
	raws := map[string]map[string]float64{"rows": {"width": 96, "depth": 5}}
	if d.HasParam("fused") {
		raws["fused"] = map[string]float64{"width": 96, "depth": 5, "fused": 1}
	}
	for layout, raw := range raws {
		for _, c := range variantsOf(d) {
			out = append(out, projVariant{layout + "/" + c.name, func(seed uint64) (any, error) {
				p, err := d.Validate(seed, raw)
				if err != nil {
					return nil, err
				}
				return c.build(p)
			}, c.bind.Ingest})
		}
	}
	if kw := kwiseBuilders[d.Name]; kw != nil {
		out = append(out, projVariant{"kwise/plain", func(seed uint64) (any, error) { return kw(seed), nil }, d.Bind.Ingest})
	}
	return out
}

// randomLines renders a random weighted stream in the descriptor's
// line format over a small key universe (so shards share keys), with
// the occasional weight near 2^64 so counters and n wrap. The kinds
// whose first field is not an item are blockLines'.
func randomLines(rng *rand.Rand, kind InputKind, n int) [][]byte {
	switch kind {
	case InputFloats, InputUintValues, InputTurnstile, InputWeightedFloatItems:
		return blockLines(rng, kind, n)
	}
	out := make([][]byte, n)
	for i := range out {
		key := fmt.Sprintf("k%d", rng.Intn(40))
		switch kind {
		case InputWeightedItems:
			w := uint64(rng.Intn(1000))
			if rng.Intn(50) == 0 {
				w = ^uint64(0) - uint64(rng.Intn(10))
			}
			out[i] = []byte(fmt.Sprintf("%s\t%d", key, w))
		case InputSignedItems:
			out[i] = []byte(fmt.Sprintf("%s\t%d", key, rng.Int63n(1<<40)-1<<39))
		case InputEdges: // among compactShape's 64 vertices
			u := rng.Intn(64)
			out[i] = []byte(fmt.Sprintf("%d\t%d", u, (u+1+rng.Intn(63))%64))
		default:
			out[i] = []byte(key)
		}
	}
	return out
}

// mergeQuery is the coordinator's read path over a set of envelopes:
// generic decode, merge through the decoded type's binding, one query.
func mergeQuery(t *testing.T, envs [][]byte, q url.Values) (map[string]any, *Descriptor) {
	t.Helper()
	var merged any
	var d *Descriptor
	for i, env := range envs {
		inst, id, err := Decode(env)
		if err != nil {
			t.Fatalf("decode envelope %d: %v", i, err)
		}
		if merged == nil {
			merged, d = inst, id
			continue
		}
		if id != d {
			t.Fatalf("envelope %d decodes as %s, others as %s", i, id.Name, d.Name)
		}
		if err := d.Bind.Merge(merged, inst); err != nil {
			t.Fatalf("merge envelope %d: %v", i, err)
		}
	}
	res, err := d.Bind.Query(merged, q)
	if err != nil {
		t.Fatalf("query merged %s: %v", d.Name, err)
	}
	return res, d
}

func closeIfOwned(inst any) {
	if c, ok := inst.(interface{ Close() }); ok {
		c.Close()
	}
}

func TestProjectionEqualsMergedQuery(t *testing.T) {
	projecting := 0
	for _, d := range All() {
		if d.Project == nil {
			continue
		}
		projecting++
		if d.Finish == nil {
			t.Errorf("%s declares Project without Finish", d.Name)
			continue
		}
		for _, v := range projVariants(d) {
			d, v := d, v
			t.Run(d.Name+"/"+v.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(v.name)) + int64(d.Tag)<<8))
				for trial := 0; trial < 8; trial++ {
					shards := 1 + rng.Intn(5)
					seed := uint64(1 + rng.Intn(3))
					insts := make([]any, shards)
					for i := range insts {
						inst, err := v.build(seed)
						if err != nil {
							t.Fatalf("build: %v", err)
						}
						defer closeIfOwned(inst)
						if err := v.ingest(inst, randomLines(rng, d.Input, rng.Intn(400))); err != nil {
							t.Fatalf("ingest: %v", err)
						}
						insts[i] = inst
					}
					for _, item := range []string{"k0", "k7", "k39", "never-seen"} {
						q := url.Values{"item": {item}}
						var full, projected [][]byte
						for _, inst := range insts {
							p, err := d.Projection(inst, q)
							if err != nil || p == nil {
								t.Fatalf("Projection(%s) = %v, %v: want a projection", item, p, err)
							}
							penv, _ := p.MarshalBinary()
							if len(penv) >= 1024 {
								t.Errorf("projection envelope is %d bytes, want < 1 KB", len(penv))
							}
							fenv, err := Marshal(inst)
							if err != nil {
								t.Fatal(err)
							}
							projected, full = append(projected, penv), append(full, fenv)
						}
						want, _ := mergeQuery(t, full, q)
						got, carrier := mergeQuery(t, projected, q)
						if carrier.Tag != core.TagProjection {
							t.Fatalf("projection envelopes decode as %s", carrier.Name)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d, %d shards, item %s: projected %v, merged-full %v", trial, shards, item, got, want)
						}
					}
				}
			})
		}
	}
	if projecting < 2 {
		t.Errorf("%d families project, want countmin and countsketch at least", projecting)
	}
}

// project builds a default-shape instance of the named family from raw
// parameters, ingests a few lines, and projects q.
func project(t *testing.T, name string, seed uint64, raw map[string]float64, q url.Values) *Projection {
	t.Helper()
	d, _ := Lookup(name)
	p, err := d.Validate(seed, raw)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Bind.Ingest(inst, sampleLines(d.Input)); err != nil {
		t.Fatal(err)
	}
	proj, err := d.Projection(inst, q)
	if err != nil {
		t.Fatal(err)
	}
	return proj
}

func TestProjectionRefusals(t *testing.T) {
	alpha := url.Values{"item": {"alpha"}}
	shape := map[string]float64{"width": 64, "depth": 4}
	base := func() *Projection { return project(t, "countmin", 1, shape, alpha) }
	for name, other := range map[string]*Projection{
		"seed":   project(t, "countmin", 2, shape, alpha),
		"width":  project(t, "countmin", 1, map[string]float64{"width": 128, "depth": 4}, alpha),
		"depth":  project(t, "countmin", 1, map[string]float64{"width": 64, "depth": 5}, alpha),
		"layout": project(t, "countmin", 1, map[string]float64{"width": 64, "depth": 4, "fused": 1}, alpha),
		"key":    project(t, "countmin", 1, shape, url.Values{"item": {"beta"}}),
		"query":  project(t, "countmin", 1, shape, url.Values{"item": {"alpha"}, "k": {"3"}}),
		"origin": project(t, "countsketch", 1, map[string]float64{"width": 64, "depth": 4}, alpha),
	} {
		if err := base().Merge(other); !errors.Is(err, core.ErrIncompatible) {
			t.Errorf("merge across different %s: err = %v, want ErrIncompatible", name, err)
		}
	}
	if err := base().Merge(base()); err != nil {
		t.Errorf("merge of like projections: %v", err)
	}

	// A projection answers only the query it was taken for.
	carrier, _ := LookupTag(core.TagProjection)
	if _, err := carrier.Bind.Query(base(), url.Values{"item": {"beta"}}); !errors.Is(err, core.ErrIncompatible) {
		t.Errorf("Finish under another query: err = %v, want ErrIncompatible", err)
	}
	if _, err := carrier.Bind.Query(&Projection{Origin: core.TagHLL, Cells: []uint64{1}}, nil); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("Finish of a non-projecting origin: err = %v, want ErrCorrupt", err)
	}
	if _, err := carrier.Bind.Query(&Projection{Origin: core.TagCountMin}, nil); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("Finish of a cell-less projection: err = %v, want ErrCorrupt", err)
	}

	// What does not project falls back to the full envelope: (nil, nil).
	if p := project(t, "countmin", 1, shape, url.Values{}); p != nil {
		t.Errorf("parameterless countmin query projected: %+v", p)
	}
	if p := project(t, "hll", 1, nil, alpha); p != nil {
		t.Errorf("hll projected: %+v", p)
	}
	cm, _ := Lookup("countmin")
	conservative := frequency.NewCountMin(64, 4, 1)
	conservative.SetConservative(true)
	if p, err := cm.Projection(conservative, alpha); p != nil || err != nil {
		t.Errorf("conservative (non-mergeable) countmin projected: %+v, %v", p, err)
	}
}

func TestProjectionDecodeBounds(t *testing.T) {
	good, _ := project(t, "countmin", 1, nil, url.Values{"item": {"alpha"}}).MarshalBinary()
	if _, d, err := Decode(good); err != nil || d.Tag != core.TagProjection {
		t.Fatalf("Decode(valid projection) = %v, %v", d, err)
	}
	over := core.NewWriter(core.TagProjection, 1)
	over.U8(core.TagCountMin)
	over.U64(1)
	over.U64(2)
	over.U64(3)
	over.U64Slice(make([]uint64, maxProjectionCells+1))
	huge := append([]byte(nil), good[:6+1+24]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff) // a 4-billion cell count with no cells behind it
	for name, data := range map[string][]byte{
		"too many cells": over.Bytes(),
		"huge count":     huge,
		"truncated":      good[:len(good)-3],
		"trailing":       append(append([]byte(nil), good...), 0),
		"future version": bytes.Replace(good, []byte{core.TagProjection, 1}, []byte{core.TagProjection, 2}, 1),
	} {
		if _, _, err := Decode(data); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("Decode(%s): err = %v, want ErrCorrupt", name, err)
		}
	}
}
