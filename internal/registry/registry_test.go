package registry

// Registry-wide contract tests at the schema's defaults: every wire tag
// is accounted for, every descriptor's default instance builds, round-
// trips, ingests its advertised line format, merges a decoded peer and
// rejects a malformed batch whole. What a family promises beyond that,
// at shapes its streams overflow, is laws_test.go.

import (
	"bytes"
	"errors"
	"math/rand"
	"net/url"
	"testing"

	"repro/internal/core"
)

// TestTagExhaustive pins the append-only tag space: every tag in
// [1, core.TagMax] must be either registered or explicitly reserved,
// so a new tag constant without a descriptor fails CI instead of
// silently being undecodable.
func TestTagExhaustive(t *testing.T) {
	for tag := byte(1); tag <= core.TagMax; tag++ {
		d, registered := byTag[tag]
		_, isReserved := reserved[tag]
		switch {
		case registered && isReserved:
			t.Errorf("tag %d is both registered (%s) and reserved", tag, d.Name)
		case !registered && !isReserved:
			t.Errorf("tag %d has no descriptor and no reservation", tag)
		case registered:
			if got, ok := Lookup(d.Name); !ok || got != d {
				t.Errorf("tag %d: Lookup(%q) does not round-trip to the same descriptor", tag, d.Name)
			}
		}
	}
	if len(All()) < 25 {
		t.Errorf("All() = %d descriptors, want at least 25", len(All()))
	}
}

// atDefaults runs f, for each descriptor want accepts, with a constructor
// of its plain instance under the schema's defaults and a check that an
// envelope decodes, generically, to this family and the same bytes.
func atDefaults(t *testing.T, want func(*Descriptor) bool, f func(t *testing.T, d *Descriptor, build func() any, roundTrip func(inst any) any)) {
	for _, d := range All() {
		if !want(d) {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			p, err := d.Validate(1, nil)
			if err != nil {
				t.Fatalf("Validate with defaults: %v", err)
			}
			build := func() any {
				inst, err := d.New(p)
				if err != nil {
					t.Fatalf("New with defaults: %v", err)
				}
				return inst
			}
			f(t, d, build, func(inst any) any {
				env := mustMarshal(t, inst)
				decoded, dd, err := Decode(env)
				if err != nil || dd != d {
					t.Fatalf("Decode = %v, %v; want a %s", dd, err, d.Name)
				}
				if again := mustMarshal(t, decoded); !bytes.Equal(env, again) {
					t.Errorf("round-trip not byte-identical: %d vs %d bytes", len(env), len(again))
				}
				return decoded
			})
		})
	}
}

func servable(d *Descriptor) bool { return d.Servable() }

// TestFreshRoundTrip: every descriptor's defaults build an instance whose
// envelope decodes, generically, to the same bytes.
func TestFreshRoundTrip(t *testing.T) {
	atDefaults(t, func(*Descriptor) bool { return true }, func(t *testing.T, d *Descriptor, build func() any, roundTrip func(any) any) {
		roundTrip(build())
	})
}

// defaultLines is a short batch valid under d's default parameters.
func defaultLines(d *Descriptor) [][]byte {
	return randomLines(rand.New(rand.NewSource(int64(d.Tag))), d.Input, 12, 40)
}

// badLine returns a line the kind's parser must reject, or nil when
// every byte string is acceptable (plain items, events).
func badLine(k InputKind) []byte {
	switch k {
	case InputWeightedItems:
		return []byte("x\tbogus")
	case InputSignedItems:
		return []byte("x\t1.5")
	case InputFloats:
		return []byte("notafloat")
	case InputUintValues:
		return []byte("notanum")
	case InputTurnstile:
		return []byte("x\t1")
	case InputEdges:
		return []byte("5\t5") // self-loop
	case InputWeightedFloatItems:
		return []byte("x\t-1")
	}
	return nil
}

// TestIngestQueryRoundTrip drives every servable type end to end off
// the descriptor alone: construct, ingest the advertised line format,
// serialize, decode generically, and query the decoded copy.
func TestIngestQueryRoundTrip(t *testing.T) {
	atDefaults(t, servable, func(t *testing.T, d *Descriptor, build func() any, roundTrip func(any) any) {
		inst := build()
		if _, err := d.Bind.Ingest(inst, joinLines(defaultLines(d))); err != nil {
			t.Fatalf("Ingest(%q): %v", defaultLines(d), err)
		}
		if _, err := d.Bind.Query(roundTrip(inst), url.Values{}); err != nil {
			t.Fatalf("Query on decoded instance: %v", err)
		}
	})
}

// TestIngestRejectsBadLines checks batch atomicity: a batch with one
// malformed line fails as a whole with ErrInput and the instance still
// serializes identically to its pre-batch state.
func TestIngestRejectsBadLines(t *testing.T) {
	parsed := func(d *Descriptor) bool { return d.Servable() && badLine(d.Input) != nil }
	atDefaults(t, parsed, func(t *testing.T, d *Descriptor, build func() any, _ func(any) any) {
		inst, bad := build(), badLine(d.Input)
		before := mustMarshal(t, inst)
		if _, err := d.Bind.Ingest(inst, joinLines(append(defaultLines(d), bad))); !errors.Is(err, ErrInput) {
			t.Fatalf("Ingest with bad line %q: err = %v, want ErrInput", bad, err)
		}
		if !bytes.Equal(before, mustMarshal(t, inst)) {
			t.Error("rejected batch mutated the sketch (partial ingest)")
		}
	})
}

// Every constructor of the two hashed-counter families refuses a fused
// depth past frequency.Layout's cap as ErrParams, not a panic.
func TestFusedDepthCapIsErrParams(t *testing.T) {
	for _, name := range []string{"countmin", "countsketch"} {
		d, _ := Lookup(name)
		p, err := d.Validate(1, map[string]float64{"fused": 1, "depth": 22})
		if err != nil {
			t.Fatalf("%s: the schema itself refused depth 22: %v", name, err)
		}
		for _, buffered := range []bool{false, true} {
			if _, err := d.Serving(p, buffered); !errors.Is(err, ErrParams) {
				t.Errorf("%s fused depth 22: err = %v, want ErrParams", name, err)
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	d, ok := Lookup("hll")
	if !ok {
		t.Fatal("hll not registered")
	}
	cases := map[string]map[string]float64{
		"unknown name":    {"nope": 1},
		"below min":       {"p": 3},
		"above max":       {"p": 19},
		"non-integer":     {"p": 4.5},
		"nan":             {"p": nan()},
		"unknown + valid": {"p": 14, "width": 100},
	}
	for name, raw := range cases {
		if _, err := d.Validate(1, raw); !errors.Is(err, ErrParams) {
			t.Errorf("%s: Validate(%v) err = %v, want ErrParams", name, raw, err)
		}
	}
	// Defaults pass, and explicit in-range values stick.
	p, err := d.Validate(7, map[string]float64{"p": 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Int("p") != 10 {
		t.Errorf("Validate kept seed=%d p=%d, want 7/10", p.Seed, p.Int("p"))
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestDecodeRejects covers the generic decoder's failure taxonomy:
// short or bad-magic headers, unknown tags, and retired tags all fail
// with core.ErrCorrupt and a distinguishing message.
func TestDecodeRejects(t *testing.T) {
	envelope := func(tag byte) []byte { return []byte{'G', 'S', 'K', '1', tag, 1} }
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte("GSK1")},
		{"bad magic", []byte("XXXX\x01\x01")},
		{"unknown tag", envelope(200)},
		{"reserved tag", envelope(core.TagL0Sampler)},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.data); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("Decode(%s): err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestMergeThroughRegistry merges a decoded peer into a live instance
// of every mergeable servable family at its default shape, through the
// descriptor bindings alone.
func TestMergeThroughRegistry(t *testing.T) {
	merging := func(d *Descriptor) bool { return d.Mergeable() && d.Servable() }
	atDefaults(t, merging, func(t *testing.T, d *Descriptor, build func() any, roundTrip func(any) any) {
		peer := build()
		if _, err := d.Bind.Ingest(peer, joinLines(defaultLines(d))); err != nil {
			t.Fatal(err)
		}
		if err := d.Bind.Merge(build(), roundTrip(peer)); err != nil {
			t.Fatalf("Merge same-shape peer: %v", err)
		}
	})
}

// TestBlockedBloomServingAllocatesOneFilter: a served or buffered
// blockedbloom allocates its bit array once — sized by arithmetic, not
// by a throwaway filter built to read m and k from — through both
// parameter conventions, at sizes where a second array would show.
func TestBlockedBloomServingAllocatesOneFilter(t *testing.T) {
	d, _ := Lookup("blockedbloom")
	for _, raw := range []map[string]float64{
		{"m": 1 << 26, "k": 7},
		{"n": 4_000_000, "fpr": 0.01},
	} {
		p, err := d.Validate(1, raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, buffered := range []bool{false, true} {
			size := 0
			got := bytesPerRun(2, func() {
				inst, err := d.Serving(p, buffered)
				if err != nil {
					t.Fatal(err)
				}
				size = SizeOf(inst)
				closeIfOwned(inst)
			})
			if got >= 1.1*float64(size) {
				t.Errorf("%v buffered=%v: creating a %d-byte filter allocated %.0f bytes, %.2fx", raw, buffered, size, got, got/float64(size))
			}
		}
	}
}
