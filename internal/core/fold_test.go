package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// TestWordLoops: AddWords and OrWords against a word-at-a-time
// reference, at every length around the unrolled stride, counters
// wrapping.
func TestWordLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for words := 0; words <= 13; words++ {
		a, b := make([]uint64, words), make([]uint64, words)
		for i := range a {
			a[i], b[i] = rng.Uint64(), rng.Uint64()
			if i%3 == 0 {
				a[i] = ^uint64(0) - uint64(i)
			}
		}
		for name, tc := range map[string]struct {
			loop func(dst, src []byte)
			ref  func(x, y uint64) uint64
		}{
			"AddWords": {AddWords, func(x, y uint64) uint64 { return x + y }},
			"OrWords":  {OrWords, func(x, y uint64) uint64 { return x | y }},
		} {
			dst, src := make([]byte, 8*words), make([]byte, 8*words)
			putU64s(dst, a)
			putU64s(src, b)
			keep := bytes.Clone(src)
			tc.loop(dst, src)
			for i := range a {
				if got := binary.LittleEndian.Uint64(dst[8*i:]); got != tc.ref(a[i], b[i]) {
					t.Errorf("%s over %d words: word %d is %#x, want %#x", name, words, i, got, tc.ref(a[i], b[i]))
				}
			}
			if !bytes.Equal(src, keep) {
				t.Errorf("%s over %d words changed src", name, words)
			}
		}
	}
}

// TestWireCells: an envelope of a header, a summed counter and two
// tables checks, compares and folds as WireCells says it does.
func TestWireCells(t *testing.T) {
	build := func(shape byte, n uint64, fill uint64) []byte {
		w := NewWriter(TagCountMin, 1)
		w.U8(shape)
		w.U64(n)
		w.U8(7)
		for part := 0; part < 2; part++ {
			w.U64Slice([]uint64{fill, fill + 1, fill + 2})
		}
		w.U64Slice([]uint64{fill * 2})
		return w.Bytes()
	}
	c := WireCells{Sum: 7, Start: 16, Tables: [2]WireTable{{Parts: 2, Words: 3}, {Parts: 1, Words: 1}}}
	a, b := build(1, 10, 100), build(1, 5, 1000)
	for name, env := range map[string][]byte{"a": a, "b": b} {
		if err := c.Check(env); err != nil {
			t.Fatalf("Check(%s): %v", name, err)
		}
	}
	for cut := c.Start; cut < len(a); cut++ {
		if err := c.Check(a[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Check of %d of %d bytes: %v, want ErrCorrupt", cut, len(a), err)
		}
	}
	if err := c.Check(append(bytes.Clone(a), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Check with a trailing byte: %v, want ErrCorrupt", err)
	}
	forged := bytes.Clone(a)
	forged[c.Start] = 4 // the first part's count
	if err := c.Check(forged); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Check with a forged count: %v, want ErrCorrupt", err)
	}
	if !c.SameShape(a, b) {
		t.Error("SameShape: envelopes that differ in n and cells only are told apart")
	}
	if c.SameShape(a, build(2, 10, 100)) {
		t.Error("SameShape: a header byte before n differs and is not seen")
	}
	other := build(1, 10, 100)
	other[15] ^= 1 // the header byte after n
	if c.SameShape(a, other) {
		t.Error("SameShape: a header byte after n differs and is not seen")
	}
	c.Fold(a, b, AddWords)
	r, _, err := NewReader(a, TagCountMin)
	if err != nil {
		t.Fatal(err)
	}
	if shape, n, last := r.U8(), r.U64(), r.U8(); shape != 1 || n != 15 || last != 7 {
		t.Errorf("Fold: header reads shape %d, n %d, %d; want 1, 15, 7", shape, n, last)
	}
	for part, want := range [][]uint64{{1100, 1102, 1104}, {1100, 1102, 1104}, {2200}} {
		if got := r.U64Slice(); !slices.Equal(got, want) {
			t.Errorf("Fold: part %d holds %v, want %v", part, got, want)
		}
	}
	if err := r.Done(); err != nil {
		t.Errorf("Fold: the envelope no longer reads to its end: %v", err)
	}
}
