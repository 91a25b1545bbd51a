package registry

// The wire-domain merge contract, checked for every descriptor that
// declares MergeWire, every instance variant and envelope form of it:
//
//	MergeWire(a, b) == Marshal(Merge(Decode(a), Decode(b)))
//
// byte for byte, with decode-then-Bind.Merge as the reference for
// refusals too: whatever the reference refuses MergeWire (or, where it
// declines, MergeEnvelopes behind it) refuses with the same error class,
// and a refusal leaves the destination as it was.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/mergex"
)

// mergeWireRows is one row per family with the capability: small
// shapes to check the law on, and for each incompatibility the family
// declares the parameters of a sketch that must not merge with one of
// the first shape (a different seed, and the slim form against the full
// one, are tried for every family).
var mergeWireRows = map[string]struct {
	shapes []map[string]float64
	differ map[string]map[string]float64
}{
	"sfsketch": {[]map[string]float64{{"width": 64, "depth": 3, "ratio": 4}}, map[string]map[string]float64{
		"width": {"width": 72, "depth": 3, "ratio": 4},
		"depth": {"width": 64, "depth": 4, "ratio": 4},
		"ratio": {"width": 64, "depth": 3, "ratio": 5},
	}},
	"countmin": {[]map[string]float64{{"width": 96, "depth": 5}, {"width": 96, "depth": 5, "fused": 1}}, map[string]map[string]float64{
		"width": {"width": 104, "depth": 5},
		"depth": {"width": 96, "depth": 4},
		"mode":  {"width": 96, "depth": 5, "fused": 1},
	}},
	"countsketch": {[]map[string]float64{{"width": 96, "depth": 5}, {"width": 96, "depth": 5, "fused": 1}}, map[string]map[string]float64{
		"width": {"width": 104, "depth": 5},
		"depth": {"width": 96, "depth": 7},
		"mode":  {"width": 96, "depth": 5, "fused": 1},
	}},
	// p = 4 is the one register file that is not whole 3-word groups.
	"hll": {[]map[string]float64{{"p": 6}, {"p": 4}}, map[string]map[string]float64{
		"p": {"p": 7},
	}},
	"bloom": {[]map[string]float64{{"m": 1000, "k": 3}}, map[string]map[string]float64{
		"m": {"m": 1064, "k": 3},
		"k": {"m": 1000, "k": 4},
	}},
	"blockedbloom": {[]map[string]float64{{"m": 2048, "k": 3}}, map[string]map[string]float64{
		"m": {"m": 2560, "k": 3},
		"k": {"m": 2048, "k": 4},
	}},
}

// wireEnvelope builds one instance, feeds it a seeded stream through
// the variant's ingest binding and returns its envelope.
func wireEnvelope(t *testing.T, d *Descriptor, variant string, raw map[string]float64, seed uint64, slim bool, rng *rand.Rand) []byte {
	t.Helper()
	p, err := d.Validate(seed, raw)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wireVariants(d)[variant](p)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIfOwned(inst)
	return marshalFed(t, d, inst, ingestFor(d, variant), slim, rng)
}

// kwiseOf builds d's k-wise layout at projShape.
func kwiseOf(t *testing.T, d *Descriptor, seed uint64) any {
	t.Helper()
	p, err := d.Validate(seed, projShape)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := kwiseBuilders[d.Name](p)
	return inst
}

func marshalFed(t *testing.T, d *Descriptor, inst any, ingest func(any, []byte) (int, error), slim bool, rng *rand.Rand) []byte {
	t.Helper()
	if _, err := ingest(inst, joinLines(randomLines(rng, d.Input, 300, 40))); err != nil {
		t.Fatal(err)
	}
	env, _, err := AppendMarshal(nil, inst, slim)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// decodeMerge is the reference: decode every envelope, fold the rest
// into the first through Bind.Merge, marshal. With a descriptor it is
// that family's decoder that reads them; with none, each envelope names
// its own family and two families do not merge.
func decodeMerge(d *Descriptor, envs ...[]byte) ([]byte, error) {
	var acc any
	for _, env := range envs {
		id := d
		if d == nil {
			var err error
			if id, err = descriptorOf(env); err != nil {
				return nil, err
			}
		}
		inst, err := id.Decode(env)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc, d = inst, id
		} else if id != d {
			return nil, core.ErrIncompatible
		} else if err := d.Bind.Merge(acc, inst); err != nil {
			return nil, err
		}
	}
	return Marshal(acc)
}

// sameClass reports whether two merge outcomes agree: both succeed, or
// both fail in the same one of the two classes a wire error has.
func sameClass(a, b error) bool {
	return (a == nil) == (b == nil) &&
		errors.Is(a, core.ErrCorrupt) == errors.Is(b, core.ErrCorrupt) &&
		errors.Is(a, core.ErrIncompatible) == errors.Is(b, core.ErrIncompatible)
}

// checkAgainstReference merges src into a copy of dst both ways and
// requires the same outcome: the reference's bytes, or its error class
// with the copy untouched. MergeWire may decline; MergeEnvelopes, which
// then decodes, may not disagree either.
func checkAgainstReference(t *testing.T, d *Descriptor, what string, dst, src []byte) {
	t.Helper()
	want, wantErr := decodeMerge(d, dst, src)
	got := slices.Clone(dst)
	n, err := d.MergeWire(got, src)
	switch {
	case err != nil || n == 0:
		if !bytes.Equal(got, dst) {
			t.Fatalf("%s: MergeWire answered (%v, %v) and changed dst", what, n, err)
		}
		if err != nil && !sameClass(err, wantErr) {
			t.Fatalf("%s: MergeWire: %v, decode-merge: %v", what, err, wantErr)
		}
	case wantErr != nil:
		t.Fatalf("%s: MergeWire merged what decode-merge refuses: %v", what, wantErr)
	case !bytes.Equal(got, want):
		t.Fatalf("%s: MergeWire's envelope is not Marshal(Merge(Decode a, Decode b))", what)
	}
	got = slices.Clone(dst)
	want, wantErr = decodeMerge(nil, dst, src)
	m, err := MergeEnvelopes([][]byte{got, src})
	if !sameClass(err, wantErr) {
		t.Fatalf("%s: MergeEnvelopes: %v, decode-merge: %v", what, err, wantErr)
	}
	if err == nil {
		if env, err := m.Envelope(nil); err != nil || !bytes.Equal(env, want) {
			t.Fatalf("%s: MergeEnvelopes' envelope is not the reference's (%v)", what, err)
		}
	}
}

func TestMergeWireLaw(t *testing.T) {
	for _, d := range All() {
		if _, ok := mergeWireRows[d.Name]; d.MergeWire != nil && !ok {
			t.Errorf("%s declares MergeWire and has no row in mergeWireRows", d.Name)
		}
	}
	for name, row := range mergeWireRows {
		d, ok := Lookup(name)
		if !ok || d.MergeWire == nil {
			t.Errorf("mergeWireRows names %s, which has no MergeWire", name)
			continue
		}
		// Every way to come by an envelope of the family: each shape, in
		// each variant's marshal, in each form, and the layout only a
		// constructor reaches.
		type source struct {
			name    string
			make    func(seed uint64, rng *rand.Rand) []byte
			variant string // set where the row's differ shapes apply: the first shape, full form
		}
		var sources []source
		p, _ := d.Validate(1, row.shapes[0])
		inst, _ := d.New(p)
		_, hasSlim := inst.(SlimMarshaler)
		forms := []bool{false}
		if hasSlim {
			forms = append(forms, true)
		}
		for si, shape := range row.shapes {
			for variant := range wireVariants(d) {
				for _, slim := range forms {
					src := source{name: fmt.Sprint(variant, "/", map[bool]string{false: "full", true: "slim"}[slim], "/", si)}
					src.make = func(seed uint64, rng *rand.Rand) []byte {
						return wireEnvelope(t, d, variant, shape, seed, slim, rng)
					}
					if si == 0 && !slim {
						src.variant = variant
					}
					sources = append(sources, src)
				}
			}
		}
		if kwiseBuilders[name] != nil {
			sources = append(sources, source{name: "plain/kwise", make: func(seed uint64, rng *rand.Rand) []byte {
				return marshalFed(t, d, kwiseOf(t, d, seed), d.Bind.Ingest, false, rng)
			}})
		}
		for _, src := range sources {
			t.Run(name+"/"+src.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(21))
				envs := make([][]byte, 4)
				for i := range envs {
					envs[i] = src.make(7, rng)
				}
				a, b := envs[0], envs[1]

				// The law, pairwise, and that it was the wire path that held it.
				checkAgainstReference(t, d, "a+b", a, b)
				if n, err := d.MergeWire(slices.Clone(a), b); n != 1 || err != nil {
					t.Fatalf("MergeWire(a, b) = (%v, %v), want a merge", n, err)
				}

				// A 4-way fold equals the tree-merge of the decoded
				// instances, in whatever order the envelopes arrive.
				insts := make([]any, len(envs))
				for i, env := range envs {
					insts[i], _ = d.Decode(env)
				}
				tree, err := mergex.Tree(insts, d.Bind.Merge)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := Marshal(tree)
				for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
					in := make([][]byte, len(order))
					for i, j := range order {
						in[i] = slices.Clone(envs[j])
					}
					m, err := MergeEnvelopes(in)
					if err != nil || !m.Wire() {
						t.Fatalf("order %v: MergeEnvelopes: wire %v, err %v", order, m.Wire(), err)
					}
					if got, _ := m.Envelope(nil); !bytes.Equal(got, want) {
						t.Fatalf("order %v: the folded envelope is not the tree-merge's", order)
					}
					if inst, err := m.Instance(); err != nil {
						t.Fatalf("order %v: the folded envelope does not decode: %v", order, err)
					} else if back, _ := Marshal(inst); !bytes.Equal(back, want) {
						t.Fatalf("order %v: the folded envelope does not decode to the merged state", order)
					}
				}

				// Every declared incompatibility is ErrIncompatible, from
				// MergeWire or from the decode path it declines to, and
				// leaves dst alone.
				others := map[string][]byte{"seed": src.make(8, rng)}
				if src.variant != "" {
					for what, raw := range row.differ {
						others[what] = wireEnvelope(t, d, src.variant, raw, 7, false, rng)
					}
					if hasSlim {
						others["slim-vs-full"] = wireEnvelope(t, d, src.variant, row.shapes[0], 7, true, rng)
					}
				}
				for what, other := range others {
					for _, pair := range [][2][]byte{{a, other}, {other, a}} {
						dst := slices.Clone(pair[0])
						if _, err := MergeEnvelopes([][]byte{dst, pair[1]}); !errors.Is(err, core.ErrIncompatible) {
							t.Fatalf("%s differs: MergeEnvelopes: %v, want ErrIncompatible", what, err)
						}
						if !bytes.Equal(dst, pair[0]) {
							t.Fatalf("%s differs: the refused merge changed dst", what)
						}
						checkAgainstReference(t, d, what+" differs", pair[0], pair[1])
					}
				}

				// src cut at every length is refused; src with any one of its
				// leading bytes flipped (the header, and into the cells) does
				// whatever decoding it would.
				for cut := 0; cut < len(b); cut++ {
					dst := slices.Clone(a)
					if n, err := d.MergeWire(dst, b[:cut]); n != 0 || !errors.Is(err, core.ErrCorrupt) {
						t.Fatalf("src cut to %d of %d bytes: MergeWire = (%v, %v), want ErrCorrupt", cut, len(b), n, err)
					} else if !bytes.Equal(dst, a) {
						t.Fatalf("src cut to %d bytes: the refused merge changed dst", cut)
					}
				}
				checkAgainstReference(t, d, "trailing byte", a, append(slices.Clone(b), 0))
				for i := 0; i < min(len(b), 64); i++ {
					for _, mask := range []byte{0x01, 0x80, 0xff} {
						flipped := slices.Clone(b)
						flipped[i] ^= mask
						checkAgainstReference(t, d, "src byte flipped", a, flipped)
						checkAgainstReference(t, d, "dst byte flipped", flipped, a)
					}
				}
			})
		}
	}
}

// TestMergeWireQueryIsPure: a coordinator stores the reply to a
// whole-state /query of a held fold and writes it again while no shard
// changed, so the summary Query of a family that merges on the wire
// must read its state and change nothing. For every row's shape,
// variant and form, the decoded envelope is asked twice, with no
// parameters: the two replies are equal, and the envelope it marshals
// to after them is the one it marshalled to before, byte for byte.
func TestMergeWireQueryIsPure(t *testing.T) {
	for name, row := range mergeWireRows {
		d, _ := Lookup(name)
		if d.QueryMutates {
			t.Errorf("%s merges on the wire and declares that its release changes its state", name)
		}
		forms := []bool{false}
		p, _ := d.Validate(1, row.shapes[0])
		if inst, _ := d.New(p); inst != nil {
			if _, ok := inst.(SlimMarshaler); ok {
				forms = append(forms, true)
			}
		}
		for si, shape := range row.shapes {
			for variant := range wireVariants(d) {
				for _, slim := range forms {
					rng := rand.New(rand.NewSource(int64(si)))
					env := wireEnvelope(t, d, variant, shape, 7, slim, rng)
					inst, err := d.Decode(env)
					if err != nil {
						t.Fatal(err)
					}
					before, _, err := AppendMarshal(nil, inst, slim)
					if err != nil {
						t.Fatal(err)
					}
					first, err := d.Bind.Query(inst, url.Values{})
					if err != nil {
						t.Fatal(err)
					}
					again, err := d.Bind.Query(inst, url.Values{})
					if err != nil {
						t.Fatal(err)
					}
					after, _, err := AppendMarshal(nil, inst, slim)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s/%s/%d slim=%v", name, variant, si, slim)
					if fmt.Sprint(first) != fmt.Sprint(again) {
						t.Errorf("%s: a second summary query answered %v, the first %v", what, again, first)
					}
					if !bytes.Equal(before, after) {
						t.Errorf("%s: the summary query changed the envelope", what)
					}
				}
			}
		}
	}
}

// TestMergeWireFoldsAllInOnePass: MergeWire takes N envelopes at once —
// tables several fold spans long, the last span of a part ragged, fed
// enough keys that most HLL registers are set — to the bytes decoding
// and merging them gives. It validates every one before dst changes: a
// bad last envelope leaves dst as it was, though the ones before it were
// sound. And it folds up to the first envelope it declines, for the
// caller to decode from there.
func TestMergeWireFoldsAllInOnePass(t *testing.T) {
	wide := map[string]map[string]float64{
		"sfsketch":     {"width": 1000, "depth": 3, "ratio": 4},
		"countmin":     {"width": 2048, "depth": 4, "fused": 1},
		"countsketch":  {"width": 3000, "depth": 3},
		"hll":          {"p": 15},
		"bloom":        {"m": 400000, "k": 3},
		"blockedbloom": {"m": 400000, "k": 3},
	}
	for _, d := range All() {
		if d.MergeWire != nil && wide[d.Name] == nil {
			t.Errorf("%s merges on the wire and has no wide shape here", d.Name)
		}
	}
	for name, shape := range wide {
		t.Run(name, func(t *testing.T) {
			d, _ := Lookup(name)
			p, err := d.Validate(7, shape)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			envs := make([][]byte, 5)
			for i := range envs {
				inst, _ := d.New(p)
				if _, err := d.Bind.Ingest(inst, joinLines(randomLines(rng, d.Input, 30000, 1<<30))); err != nil {
					t.Fatal(err)
				}
				if envs[i], err = Marshal(inst); err != nil {
					t.Fatal(err)
				}
			}
			want, err := decodeMerge(d, envs...)
			if err != nil {
				t.Fatal(err)
			}
			dst := slices.Clone(envs[0])
			if n, err := d.MergeWire(dst, envs[1:]...); n != len(envs)-1 || err != nil {
				t.Fatalf("MergeWire of %d envelopes = (%d, %v)", len(envs), n, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatal("the one-pass fold is not Marshal(Merge(Decode ...))")
			}

			cut := slices.Clone(envs)
			cut[4] = cut[4][:len(cut[4])-8]
			dst = slices.Clone(envs[0])
			if n, err := d.MergeWire(dst, cut[1:]...); n != 0 || !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("last envelope short: MergeWire = (%d, %v), want ErrCorrupt", n, err)
			}
			if !bytes.Equal(dst, envs[0]) {
				t.Fatal("last envelope short: sound envelopes before it were folded anyway")
			}
		})
	}

	d, _ := Lookup("countmin")
	rng := rand.New(rand.NewSource(5))
	envs := make([][]byte, 4)
	for i := range envs {
		envs[i] = marshalFed(t, d, kwiseOf(t, d, 7), d.Bind.Ingest, false, rng)
	}
	envs[2][5] = 2 // a version-2 envelope, which the wire merge declines
	want, _ := decodeMerge(d, envs[:2]...)
	dst := slices.Clone(envs[0])
	if n, err := d.MergeWire(dst, envs[1:]...); n != 1 || err != nil || !bytes.Equal(dst, want) {
		t.Fatalf("an old envelope third: MergeWire = (%d, %v), want the one before it folded", n, err)
	}
}

// TestMergeWireDeclines: an envelope a merge of bytes cannot stand for
// is declined, untouched, and MergeEnvelopes gives the answer decoding
// gives — the merged state at the current version, or Merge's refusal.
func TestMergeWireDeclines(t *testing.T) {
	d, _ := Lookup("countmin")
	rng := rand.New(rand.NewSource(5))
	v3 := func() []byte {
		return marshalFed(t, d, kwiseOf(t, d, 7), d.Bind.Ingest, false, rng)
	}
	// Versions 1 and 2 wrote version 3's bytes under their own version
	// byte, version 1 without the mode byte (offset 31; all of its
	// sketches were KWise).
	v2 := func() []byte { env := v3(); env[5] = 2; return env }
	v1 := func() []byte { env := v3(); env[5] = 1; return slices.Delete(env, 31, 32) }
	for name, old := range map[string]func() []byte{"v1": v1, "v2": v2} {
		for _, envs := range [][][]byte{{old(), v3()}, {v3(), old()}, {v3(), v3(), old(), v3()}, {old(), old()}} {
			want, err := decodeMerge(d, envs...)
			if err != nil {
				t.Fatalf("%s: the reference refuses: %v", name, err)
			}
			dst := slices.Clone(envs[0])
			if n, err := d.MergeWire(dst, envs[len(envs)-1]); len(envs) == 2 && (n != 0 || err != nil || !bytes.Equal(dst, envs[0])) {
				t.Fatalf("%s: MergeWire = (%v, %v), want it declined and dst unchanged", name, n, err)
			}
			m, err := MergeEnvelopes(envs)
			if err != nil || m.Wire() {
				t.Fatalf("%s: MergeEnvelopes of %d: wire %v, err %v; want the decode path", name, len(envs), m.Wire(), err)
			}
			if got, _ := m.Envelope(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s: %d envelopes, one old, do not merge to the reference's state", name, len(envs))
			}
		}
	}

	conservative := func() []byte {
		c := frequency.NewCountMin(96, 5, 7)
		c.SetConservative(true)
		return marshalFed(t, d, c, d.Bind.Ingest, false, rng)
	}
	plain := wireEnvelope(t, d, "plain", mergeWireRows["countmin"].shapes[0], 7, false, rng)
	for _, pair := range [][2][]byte{{conservative(), plain}, {plain, conservative()}, {conservative(), conservative()}} {
		dst := slices.Clone(pair[0])
		if n, err := d.MergeWire(dst, pair[1]); n != 0 || err != nil || !bytes.Equal(dst, pair[0]) {
			t.Fatalf("conservative: MergeWire = (%v, %v), want it declined and dst unchanged", n, err)
		}
		if _, err := MergeEnvelopes([][]byte{dst, pair[1]}); !errors.Is(err, core.ErrIncompatible) {
			t.Fatalf("conservative: MergeEnvelopes: %v, want ErrIncompatible", err)
		}
		if !bytes.Equal(dst, pair[0]) {
			t.Fatal("conservative: the refused merge changed dst")
		}
	}

	// One envelope has nothing to fold into: it is decoded, as before.
	if m, err := MergeEnvelopes([][]byte{plain}); err != nil || m.Wire() {
		t.Fatalf("one envelope: wire %v, err %v", m.Wire(), err)
	}
	if _, err := MergeEnvelopes(nil); !errors.Is(err, mergex.ErrNoItems) {
		t.Fatalf("no envelopes: %v", err)
	}
	hll, _ := Lookup("hll")
	other := wireEnvelope(t, hll, "plain", nil, 7, false, rng)
	if _, err := MergeEnvelopes([][]byte{slices.Clone(plain), other}); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("two families: %v, want ErrIncompatible", err)
	}
}
