package sketch_test

// Error-path coverage for the shared serialization envelope
// (internal/core/wire.go) as exercised through real sketches — the
// input-validation contract the sketchd merge endpoint depends on:
// truncated envelopes, future version tags, and cross-type unmarshal
// must all return ErrCorrupt/ErrIncompatible-class errors, never
// panic.

import (
	"errors"
	"testing"

	sketch "repro"
	"repro/internal/bloom"
	"repro/internal/frequency"
	"repro/internal/quantile"
)

// marshaler pairs a name with a sketch serialization and a decode
// probe into a different sketch value of the same type.
type wireCase struct {
	name string
	data []byte
	dec  func([]byte) error
}

func wireCases(t *testing.T) []wireCase {
	t.Helper()
	h := sketch.NewHLL(12, 1)
	cm := sketch.NewCountMin(256, 3, 2)
	bf := bloom.New(1<<12, 4, 3)
	kll := sketch.NewKLL(64, 4)
	th := sketch.NewTheta(128, 5)
	for i := 0; i < 2000; i++ {
		h.AddUint64(uint64(i))
		cm.AddUint64(uint64(i%50), 1)
		bf.Add([]byte{byte(i), byte(i >> 8)})
		kll.Add(float64(i))
		th.AddUint64(uint64(i))
	}
	mustMarshal := func(data []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return []wireCase{
		{"hll", mustMarshal(h.MarshalBinary()),
			func(b []byte) error { var g sketch.HLLSketch; return g.UnmarshalBinary(b) }},
		{"countmin", mustMarshal(cm.MarshalBinary()),
			func(b []byte) error { var g sketch.CountMin; return g.UnmarshalBinary(b) }},
		{"bloom", mustMarshal(bf.MarshalBinary()),
			func(b []byte) error { var g sketch.BloomFilter; return g.UnmarshalBinary(b) }},
		{"kll", mustMarshal(kll.MarshalBinary()),
			func(b []byte) error { var g sketch.KLLSketch; return g.UnmarshalBinary(b) }},
		{"theta", mustMarshal(th.MarshalBinary()),
			func(b []byte) error { var g sketch.ThetaSketch; return g.UnmarshalBinary(b) }},
	}
}

func wantWireError(t *testing.T, ctx string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: decode succeeded on invalid input", ctx)
		return
	}
	if !errors.Is(err, sketch.ErrCorrupt) && !errors.Is(err, sketch.ErrIncompatible) {
		t.Errorf("%s: error %v is neither ErrCorrupt nor ErrIncompatible", ctx, err)
	}
}

func TestUnmarshalTruncatedEnvelopes(t *testing.T) {
	for _, c := range wireCases(t) {
		// Every strict prefix must be rejected cleanly.
		for cut := 0; cut < len(c.data); cut++ {
			wantWireError(t, c.name, c.dec(c.data[:cut]))
		}
	}
}

func TestUnmarshalWrongVersionTag(t *testing.T) {
	for _, c := range wireCases(t) {
		// Byte 5 of the envelope is the format version; a future
		// version must be rejected up front, not misparsed.
		bumped := append([]byte(nil), c.data...)
		bumped[5] = 0xEE
		wantWireError(t, c.name+" future-version", c.dec(bumped))
		zeroed := append([]byte(nil), c.data...)
		zeroed[5] = 0
		wantWireError(t, c.name+" version-zero", c.dec(zeroed))
	}
}

// TestUnmarshalCorruptCounts overwrites the element-count field of
// each hand-rolled decode loop with 0xFFFFFFFF. The decoder must
// reject it immediately (fuzz-found: a t-digest envelope with a bogus
// centroid count previously spun for minutes allocating and walking a
// four-billion-entry loop before this was guarded by Reader.Count).
func TestUnmarshalCorruptCounts(t *testing.T) {
	mustMarshal := func(data []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	td := sketch.NewTDigest(50)
	gk := quantile.NewGK(0.01)
	qd := quantile.NewQDigest(16, 32)
	mg := frequency.NewMisraGries(16)
	ss := sketch.NewSpaceSaving(16)
	for i := 0; i < 500; i++ {
		td.Add(float64(i))
		gk.Add(float64(i))
		qd.Add(uint64(i%1024), 1)
		mg.Add("item"+string(rune('a'+i%8)), 1)
		ss.Add("item"+string(rune('a'+i%8)), 1)
	}
	cases := []struct {
		name     string
		data     []byte
		countOff int // byte offset of the U32 element count
		dec      func([]byte) error
	}{
		// Offsets: 6-byte envelope header, then the fixed fields that
		// precede each count (see the matching MarshalBinary).
		{"tdigest", mustMarshal(td.MarshalBinary()), 6 + 8 + 8 + 8 + 8,
			func(b []byte) error { var g sketch.TDigest; return g.UnmarshalBinary(b) }},
		{"gk", mustMarshal(gk.MarshalBinary()), 6 + 8 + 8,
			func(b []byte) error { var g quantile.GK; return g.UnmarshalBinary(b) }},
		{"qdigest", mustMarshal(qd.MarshalBinary()), 6 + 1 + 8 + 8,
			func(b []byte) error { var g quantile.QDigest; return g.UnmarshalBinary(b) }},
		{"misragries", mustMarshal(mg.MarshalBinary()), 6 + 4 + 8 + 8,
			func(b []byte) error { var g frequency.MisraGries; return g.UnmarshalBinary(b) }},
		{"spacesaving", mustMarshal(ss.MarshalBinary()), 6 + 4 + 8,
			func(b []byte) error { var g sketch.SpaceSaving; return g.UnmarshalBinary(b) }},
	}
	for _, c := range cases {
		// Sanity: the untouched envelope round-trips.
		if err := c.dec(c.data); err != nil {
			t.Fatalf("%s: valid envelope rejected: %v", c.name, err)
		}
		bad := append([]byte(nil), c.data...)
		for i := 0; i < 4; i++ {
			bad[c.countOff+i] = 0xFF
		}
		wantWireError(t, c.name+" corrupt-count", c.dec(bad))
	}
}

// TestUnmarshalCorruptBloomK corrupts the hash-function count of a
// Bloom envelope: k multiplies the cost of every subsequent Add and
// Contains, so a decoded multi-billion k turns the first membership
// operation into a minutes-long spin (fuzz-found).
func TestUnmarshalCorruptBloomK(t *testing.T) {
	bf := bloom.New(1<<10, 4, 3)
	bf.AddString("x")
	cbf := bloom.NewCounting(1<<10, 4, 3)
	cbf.Add([]byte("x"))
	bfData, err := bf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cbfData, err := cbf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		dec  func([]byte) error
	}{
		{"bloom", bfData,
			func(b []byte) error { var g sketch.BloomFilter; return g.UnmarshalBinary(b) }},
		{"countingbloom", cbfData,
			func(b []byte) error { var g bloom.CountingFilter; return g.UnmarshalBinary(b) }},
	}
	for _, c := range cases {
		if err := c.dec(c.data); err != nil {
			t.Fatalf("%s: valid envelope rejected: %v", c.name, err)
		}
		// k is the U32 after the 6-byte header and the U64 bit count m.
		bad := append([]byte(nil), c.data...)
		for i := 0; i < 4; i++ {
			bad[6+8+i] = 0xFF
		}
		wantWireError(t, c.name+" corrupt-k", c.dec(bad))
	}
}

func TestUnmarshalCrossType(t *testing.T) {
	cases := wireCases(t)
	for _, src := range cases {
		for _, dst := range cases {
			if src.name == dst.name {
				continue
			}
			wantWireError(t, src.name+"→"+dst.name, dst.dec(src.data))
		}
	}
}
