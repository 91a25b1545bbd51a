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
	"math/rand"
	"net/url"
	"path"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/frequency"
)

// kwise builds a hashed-counter family in the row-hash layout no creation
// parameter reaches, at the width and depth asked for.
func kwise[T any](build func(frequency.Layout) T) func(Params) (any, error) {
	return func(p Params) (any, error) {
		return build(frequency.Layout{Width: p.Int("width"), Depth: p.Int("depth"), Mode: frequency.KWise, Seed: p.Seed}), nil
	}
}

var kwiseBuilders = map[string]func(Params) (any, error){
	"countmin":    kwise(frequency.NewCountMinLayout),
	"countsketch": kwise(frequency.NewCountSketchLayout),
}

// projShape is the table the projection and wire-merge tests run on.
var projShape = shape{"width": 96, "depth": 5}

// projVariants are every layout's variants, named layout/variant.
func projVariants(d *Descriptor) []variant {
	var out []variant
	for _, lay := range layoutsOf(d) {
		for _, v := range lay.variants {
			v.name = path.Join(lay.name, v.name)
			out = append(out, v)
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
						p, err := d.Validate(seed, projShape)
						if err != nil {
							t.Fatal(err)
						}
						inst, err := v.build(p)
						if err != nil {
							t.Fatalf("build: %v", err)
						}
						defer closeIfOwned(inst)
						if err := v.bind.Ingest(inst, randomLines(rng, d.Input, rng.Intn(400), 40)); err != nil {
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
	if err := d.Bind.Ingest(inst, defaultLines(d)); err != nil {
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
	carrier := byTag[core.TagProjection]
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
