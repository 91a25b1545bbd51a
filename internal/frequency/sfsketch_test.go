package frequency

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
)

func buildSF(t *testing.T, slimW, slimD, fatW, fatD int, n int) (*SFSketch, map[uint64]uint64) {
	t.Helper()
	s := NewSFSketch(slimW, slimD, fatW, fatD, 7)
	stream, truth := zipfStream(n, 20000, 1.1, 7)
	for _, v := range stream {
		s.AddUint64(v, 1)
	}
	return s, truth
}

func TestSFNeverUndercounts(t *testing.T) {
	s, truth := buildSF(t, 256, 4, 2048, 4, 50000)
	for item, want := range truth {
		if got := s.EstimateUint64(item); got < want {
			t.Fatalf("slim undercount: item %d est %d < true %d", item, got, want)
		}
	}
	// The slim estimate never exceeds what a plain Count-Min of the slim
	// shape would report: every conditional update adds at most `weight`
	// to a counter, so the slim grid is dominated cell-wise by the plain
	// grid over the same stream and hashes.
	plain := NewSFSketch(256, 4, 1, 1, 7)
	plain.fat = nil // slim-only: plain CM semantics over the same slim hashes
	stream, _ := zipfStream(50000, 20000, 1.1, 7)
	for _, v := range stream {
		plain.AddUint64(v, 1)
	}
	for item := range truth {
		if sf, cm := s.EstimateUint64(item), plain.EstimateUint64(item); sf > cm {
			t.Fatalf("item %d: slim estimate %d exceeds plain Count-Min %d", item, sf, cm)
		}
	}
}

func TestSFBeatsPlainCountMinAtSlimSize(t *testing.T) {
	// The headline claim: at equal wire size (the slim shape), the
	// two-stage sketch's average relative error is a small fraction of a
	// plain Count-Min's. This is the in-library version of experiment
	// E33's accuracy-per-byte gate.
	const n = 200000
	s := NewSFSketch(128, 4, 1024, 4, 3)
	cm := NewCountMin(128, 4, 3)
	stream, truth := zipfStream(n, 50000, 1.05, 3)
	for _, v := range stream {
		s.AddUint64(v, 1)
		cm.AddUint64(v, 1)
	}
	var sfErr, cmErr float64
	for item, want := range truth {
		sfErr += float64(s.EstimateUint64(item)-want) / float64(want)
		cmErr += float64(cm.EstimateUint64(item)-want) / float64(want)
	}
	if sfErr*2 >= cmErr {
		t.Fatalf("SF avg rel error %.3f not 2x better than plain CM %.3f at equal slim size",
			sfErr/float64(len(truth)), cmErr/float64(len(truth)))
	}
}

func TestSFMarshalRoundTripByteIdentity(t *testing.T) {
	s, _ := buildSF(t, 64, 3, 512, 3, 20000)

	full, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g SFSketch
	if err := g.UnmarshalBinary(full); err != nil {
		t.Fatal(err)
	}
	if g.SlimOnly() {
		t.Fatal("full envelope decoded as slim-only")
	}
	full2, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, full2) {
		t.Fatal("full envelope: Marshal -> Decode -> Marshal is not byte-identical")
	}

	slim, err := s.MarshalSlim()
	if err != nil {
		t.Fatal(err)
	}
	if len(slim) >= len(full) {
		t.Fatalf("slim envelope (%d bytes) not smaller than full (%d bytes)", len(slim), len(full))
	}
	var sl SFSketch
	if err := sl.UnmarshalBinary(slim); err != nil {
		t.Fatal(err)
	}
	if !sl.SlimOnly() {
		t.Fatal("slim envelope decoded with a fat stage")
	}
	slim2, err := sl.MarshalBinary() // slim-only re-marshals slim
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slim, slim2) {
		t.Fatal("slim envelope: Marshal -> Decode -> Marshal is not byte-identical")
	}
	if sl.N() != s.N() || sl.Seed() != s.Seed() || sl.FatWidth() != s.FatWidth() {
		t.Fatal("slim envelope dropped header fields")
	}
	// Slim-only answers the same point queries as the full instance —
	// the whole point of shipping slim.
	for _, item := range []uint64{1, 2, 3, 100, 9999} {
		if a, b := s.EstimateUint64(item), sl.EstimateUint64(item); a != b {
			t.Fatalf("item %d: full slim-stage estimate %d != decoded slim estimate %d", item, a, b)
		}
	}
}

func TestSFMergeFullAndSlim(t *testing.T) {
	mk := func(seed uint64) (*SFSketch, []uint64) {
		s := NewSFSketch(128, 4, 1024, 4, 5)
		stream, _ := zipfStream(30000, 8000, 1.2, seed)
		for _, v := range stream {
			s.AddUint64(v, 1)
		}
		return s, stream
	}
	a, sa := mk(11)
	b, sb := mk(12)

	// Full+full: merged never undercounts the combined stream.
	truth := map[uint64]uint64{}
	for _, v := range sa {
		truth[v]++
	}
	for _, v := range sb {
		truth[v]++
	}
	m := new(SFSketch)
	if env, err := a.MarshalBinary(); err != nil || m.UnmarshalBinary(env) != nil {
		t.Fatal("copy through the envelope failed")
	}
	if err := m.Merge(b); err != nil {
		t.Fatal(err)
	}
	if m.N() != a.N()+b.N() {
		t.Fatalf("merged N = %d, want %d", m.N(), a.N()+b.N())
	}
	for item, want := range truth {
		if got := m.EstimateUint64(item); got < want {
			t.Fatalf("full merge undercount: item %d est %d < true %d", item, got, want)
		}
	}

	// Slim+slim (the coordinator's slim-gather path): still never an
	// undercount of the combined stream.
	slimA, _ := a.MarshalSlim()
	slimB, _ := b.MarshalSlim()
	var da, db SFSketch
	if err := da.UnmarshalBinary(slimA); err != nil {
		t.Fatal(err)
	}
	if err := db.UnmarshalBinary(slimB); err != nil {
		t.Fatal(err)
	}
	if err := da.Merge(&db); err != nil {
		t.Fatal(err)
	}
	for item, want := range truth {
		if got := da.EstimateUint64(item); got < want {
			t.Fatalf("slim merge undercount: item %d est %d < true %d", item, got, want)
		}
	}

	// Full+slim mixing breaks the fat-caps-slim invariant and must be
	// rejected, as must shape and seed mismatches.
	if err := a.Merge(&db); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("full+slim merge: got %v, want ErrIncompatible", err)
	}
	other := NewSFSketch(128, 4, 1024, 4, 6)
	if err := a.Merge(other); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("seed-mismatched merge: got %v, want ErrIncompatible", err)
	}
}

func TestSFSlimOnlyAcceptsUpdates(t *testing.T) {
	s, _ := buildSF(t, 128, 4, 512, 4, 10000)
	slim, _ := s.MarshalSlim()
	var sl SFSketch
	if err := sl.UnmarshalBinary(slim); err != nil {
		t.Fatal(err)
	}
	before := sl.EstimateUint64(424242)
	for i := 0; i < 100; i++ {
		sl.AddUint64(424242, 1)
	}
	if got := sl.EstimateUint64(424242); got < before+100 {
		t.Fatalf("slim-only update lost weight: est %d, want >= %d", got, before+100)
	}
}

func TestSFDecodeRejectsCorrupt(t *testing.T) {
	s, _ := buildSF(t, 32, 2, 64, 2, 1000)
	full, _ := s.MarshalBinary()
	for name, mut := range map[string]func([]byte) []byte{
		"mode byte 2": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[6] = 2 // magic(4) + tag(1) + version(1), then mode
			return c
		},
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"trailing":  func(b []byte) []byte { return append(append([]byte(nil), b...), 0) },
		"zero dims": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[7], c[8], c[9], c[10] = 0, 0, 0, 0 // slimWidth u32
			return c
		},
	} {
		var g SFSketch
		if err := g.UnmarshalBinary(mut(full)); err == nil {
			t.Fatalf("%s: corrupt envelope decoded without error", name)
		}
	}
}
