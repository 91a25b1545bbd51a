package registry

// Registry-wide contract tests: every wire tag is accounted for, every
// descriptor's fresh instance survives Marshal → Decode → Marshal
// byte-identically, every servable type ingests its advertised line
// format and rejects malformed batches whole, and the capability
// surface (servable / mergeable) matches the documented expectations.

import (
	"bytes"
	"errors"
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
		d, registered := LookupTag(tag)
		_, isReserved := ReservedTag(tag)
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

// TestFreshRoundTrip builds each type with schema defaults and checks
// MarshalBinary → Decode → MarshalBinary is byte-identical, and that
// the generic decode reports the right descriptor.
func TestFreshRoundTrip(t *testing.T) {
	for _, d := range All() {
		t.Run(d.Name, func(t *testing.T) {
			p, err := d.Validate(1, nil)
			if err != nil {
				t.Fatalf("Validate with defaults: %v", err)
			}
			inst, err := d.New(p)
			if err != nil {
				t.Fatalf("New with defaults: %v", err)
			}
			env, err := Marshal(inst)
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			decoded, dd, err := Decode(env)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if dd != d {
				t.Fatalf("Decode resolved %q, want %q", dd.Name, d.Name)
			}
			env2, err := Marshal(decoded)
			if err != nil {
				t.Fatalf("re-MarshalBinary: %v", err)
			}
			if !bytes.Equal(env, env2) {
				t.Errorf("round-trip not byte-identical: %d vs %d bytes", len(env), len(env2))
			}
		})
	}
}

func lines(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// sampleLines returns a well-formed batch for each advertised input
// kind, valid under every descriptor's default parameters.
func sampleLines(k InputKind) [][]byte {
	switch k {
	case InputItems:
		return lines("alpha", "beta", "gamma")
	case InputWeightedItems:
		return lines("alpha\t3", "beta")
	case InputSignedItems:
		return lines("alpha\t-2", "beta\t+4", "gamma")
	case InputFloats:
		return lines("1.5", "2.25", "-0.5")
	case InputUintValues:
		return lines("7\t2", "42")
	case InputTurnstile:
		return lines("3\t5", "9")
	case InputEvents:
		return lines("x", "x", "x")
	case InputEdges:
		return lines("0\t1", "2\t3")
	case InputWeightedFloatItems:
		return lines("alpha\t1.5", "beta")
	}
	return nil
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
	for _, d := range All() {
		if !d.Servable() {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			p, err := d.Validate(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := d.New(p)
			if err != nil {
				t.Fatal(err)
			}
			batch := sampleLines(d.Input)
			if batch == nil {
				t.Fatalf("no sample batch for input kind %v", d.Input)
			}
			if err := d.Bind.Ingest(inst, batch); err != nil {
				t.Fatalf("Ingest(%q): %v", batch, err)
			}
			env, err := Marshal(inst)
			if err != nil {
				t.Fatalf("MarshalBinary after ingest: %v", err)
			}
			decoded, dd, err := Decode(env)
			if err != nil {
				t.Fatalf("Decode after ingest: %v", err)
			}
			if dd != d {
				t.Fatalf("Decode resolved %q, want %q", dd.Name, d.Name)
			}
			if _, err := d.Bind.Query(decoded, url.Values{}); err != nil {
				t.Fatalf("Query on decoded instance: %v", err)
			}
		})
	}
}

// TestIngestRejectsBadLines checks batch atomicity: a batch with one
// malformed line fails as a whole with ErrInput and the instance still
// serializes identically to its pre-batch state.
func TestIngestRejectsBadLines(t *testing.T) {
	for _, d := range All() {
		bad := badLine(d.Input)
		if !d.Servable() || bad == nil {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			p, err := d.Validate(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := d.New(p)
			if err != nil {
				t.Fatal(err)
			}
			before, err := Marshal(inst)
			if err != nil {
				t.Fatal(err)
			}
			batch := append(sampleLines(d.Input), bad)
			if err := d.Bind.Ingest(inst, batch); !errors.Is(err, ErrInput) {
				t.Fatalf("Ingest with bad line %q: err = %v, want ErrInput", bad, err)
			}
			after, err := Marshal(inst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("rejected batch mutated the sketch (partial ingest)")
			}
		})
	}
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
		for _, build := range []func(Params) (any, error){d.New, d.NewServing, d.NewServingBuffered} {
			if build == nil {
				continue
			}
			if _, err := build(p); !errors.Is(err, ErrParams) {
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

// TestCapabilityExpectations pins the capability surface: at least 15
// servable types (the sketchd floor), and the exact sets of types that
// intentionally lack merge or serving support.
func TestCapabilityExpectations(t *testing.T) {
	servable, nonMergeable, nonServable := 0, []string{}, []string{}
	for _, d := range All() {
		if d.Servable() {
			servable++
		} else {
			nonServable = append(nonServable, d.Name)
		}
		if !d.Mergeable() {
			nonMergeable = append(nonMergeable, d.Name)
		}
	}
	if servable < 15 {
		t.Errorf("servable types = %d, want at least 15", servable)
	}
	wantNonServable := []string{"projection", "simhash"} // the projection carrier is wire-only
	wantNonMergeable := []string{"mrl", "simhash", "weightedreservoir"}
	if !equalStrings(nonServable, wantNonServable) {
		t.Errorf("non-servable types = %v, want %v", nonServable, wantNonServable)
	}
	if !equalStrings(nonMergeable, wantNonMergeable) {
		t.Errorf("non-mergeable types = %v, want %v", nonMergeable, wantNonMergeable)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// through the descriptor bindings alone, for one representative of
// each mergeable family-shape, and checks a seed mismatch surfaces
// core.ErrIncompatible.
func TestMergeThroughRegistry(t *testing.T) {
	for _, d := range All() {
		if !d.Mergeable() || !d.Servable() {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			p, err := d.Validate(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			a, err := d.New(p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := d.New(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Bind.Ingest(b, sampleLines(d.Input)); err != nil {
				t.Fatal(err)
			}
			env, err := Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			peer, _, err := Decode(env)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Bind.Merge(a, peer); err != nil {
				t.Fatalf("Merge same-shape peer: %v", err)
			}
		})
	}
}
