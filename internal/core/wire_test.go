package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// buildEnvelope writes a small valid envelope for the tests below.
func buildEnvelope(tag, version byte) []byte {
	w := NewWriter(tag, version)
	w.U8(7)
	w.U64(42)
	w.U64Slice([]uint64{1, 2, 3})
	return w.Bytes()
}

func TestReaderRejectsTruncation(t *testing.T) {
	data := buildEnvelope(TagHLL, 1)
	// Every strict prefix must fail with ErrCorrupt — either at the
	// header check or at a field read — and never panic.
	for cut := 0; cut < len(data); cut++ {
		r, _, err := NewReader(data[:cut], TagHLL)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("cut=%d: header error %v not ErrCorrupt", cut, err)
			}
			continue
		}
		r.U8()
		r.U64()
		r.U64Slice()
		if err := r.Done(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut=%d: Done() = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	data := buildEnvelope(TagHLL, 1)

	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, err := NewReader(bad, TagHLL); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: %v", err)
	}
	// Wrong sketch tag (cross-type envelope).
	if _, _, err := NewReader(data, TagCountMin); !errors.Is(err, ErrCorrupt) {
		t.Errorf("cross-type tag: %v", err)
	}
	// Empty and sub-header inputs.
	for _, in := range [][]byte{nil, {}, []byte("GSK1"), []byte("GSK1\x06")} {
		if _, _, err := NewReader(in, TagHLL); !errors.Is(err, ErrCorrupt) {
			t.Errorf("short input %q: %v", in, err)
		}
	}
}

func TestReaderVersioned(t *testing.T) {
	// A supported version passes through.
	r, v, err := NewReaderVersioned(buildEnvelope(TagHLL, 1), TagHLL, 1)
	if err != nil || v != 1 {
		t.Fatalf("version 1: v=%d err=%v", v, err)
	}
	_ = r
	// A future version is rejected with ErrCorrupt.
	if _, _, err := NewReaderVersioned(buildEnvelope(TagHLL, 2), TagHLL, 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("future version: %v", err)
	}
	// Version 0 was never written by any release.
	if _, _, err := NewReaderVersioned(buildEnvelope(TagHLL, 0), TagHLL, 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("version 0: %v", err)
	}
	// Header errors still surface first.
	if _, _, err := NewReaderVersioned([]byte("nope"), TagHLL, 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short header: %v", err)
	}
}

func TestReaderRejectsImplausibleLengths(t *testing.T) {
	// A length prefix larger than the remaining payload must fail
	// before allocating.
	w := NewWriter(TagKLL, 1)
	w.U32(1 << 30) // claims 2^30 elements, no payload follows
	data := w.Bytes()

	r, _, err := NewReader(data, TagKLL)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U64Slice(); got != nil {
		t.Errorf("U64Slice on implausible length returned %v", got)
	}
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Err() = %v, want ErrCorrupt", err)
	}

	// Same for byte fields and float slices.
	r, _, _ = NewReader(data, TagKLL)
	if got := r.BytesField(); got != nil {
		t.Errorf("BytesField returned %v", got)
	}
	r, _, _ = NewReader(data, TagKLL)
	if got := r.F64Slice(); got != nil {
		t.Errorf("F64Slice returned %v", got)
	}
	r, _, _ = NewReader(data, TagKLL)
	if got := r.I64Slice(); got != nil {
		t.Errorf("I64Slice returned %v", got)
	}
}

func TestReaderCount(t *testing.T) {
	// A plausible count passes through and leaves the reader usable.
	w := NewWriter(TagTDigest, 1)
	w.U32(3)
	for i := 0; i < 3; i++ {
		w.F64(float64(i))
		w.F64(1)
	}
	data := w.Bytes()
	r, _, err := NewReader(data, TagTDigest)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Count(16); got != 3 {
		t.Fatalf("Count(16) = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		r.F64()
		r.F64()
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done() after guarded count: %v", err)
	}

	// A count whose payload cannot fit the remaining buffer is rejected
	// without reading further — the guard the manual decode loops
	// (t-digest, GK, q-digest, Misra-Gries, SpaceSaving) rely on to
	// avoid count-sized allocations on corrupt input.
	w = NewWriter(TagTDigest, 1)
	w.U32(0xFFFFFFFF)
	r, _, err = NewReader(w.Bytes(), TagTDigest)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Count(16); got != 0 {
		t.Errorf("Count(16) on implausible count = %d, want 0", got)
	}
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Err() = %v, want ErrCorrupt", err)
	}

	// A truncated count field also fails closed.
	w = NewWriter(TagTDigest, 1)
	w.U8(1)
	r, _, err = NewReader(w.Bytes(), TagTDigest)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Count(16); got != 0 {
		t.Errorf("Count on truncated field = %d, want 0", got)
	}
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Err() = %v, want ErrCorrupt", err)
	}
}

func TestReaderRejectsTrailingBytes(t *testing.T) {
	data := append(buildEnvelope(TagTheta, 1), 0xde, 0xad)
	r, _, err := NewReader(data, TagTheta)
	if err != nil {
		t.Fatal(err)
	}
	r.U8()
	r.U64()
	r.U64Slice()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Done() with trailing bytes = %v, want ErrCorrupt", err)
	}
}

// blockLens are the slice lengths the block codec is checked at: empty,
// one element, and enough to cross the writer's initial 64 bytes.
var blockLens = []int{0, 1, 7, 1000}

// TestBlockCodecMatchesPerElement pins the block forms to the
// per-element ones they replaced: the same bytes out, the same values
// back, for every element type, an atomic table included.
func TestBlockCodecMatchesPerElement(t *testing.T) {
	for _, n := range blockLens {
		us, is, fs := make([]uint64, n), make([]int64, n), make([]float64, n)
		as := make([]atomic.Uint64, n)
		for i := range us {
			us[i] = uint64(i+1) * 0x9e3779b97f4a7c15
			is[i] = -int64(us[i] >> 1)
			fs[i] = math.Float64frombits(us[i]) // NaN payloads must survive too
			as[i].Store(us[i])
		}
		want := NewWriter(TagKLL, 1) // one element at a time
		for _, per := range []func(i int){
			func(i int) { want.U64(us[i]) },
			func(i int) { want.I64(is[i]) },
			func(i int) { want.F64(fs[i]) },
			func(i int) { want.U64(as[i].Load()) },
		} {
			want.U32(uint32(n))
			for i := 0; i < n; i++ {
				per(i)
			}
		}
		got := NewWriter(TagKLL, 1)
		got.U64Slice(us)
		got.I64Slice(is)
		got.F64Slice(fs)
		WriteSlice(got, as)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: block writes differ from per-element writes", n)
		}

		r, _, err := NewReader(got.Bytes(), TagKLL)
		if err != nil {
			t.Fatal(err)
		}
		per, _, _ := NewReader(got.Bytes(), TagKLL)
		gu, gi, gf, ga := r.U64Slice(), r.I64Slice(), r.F64Slice(), r.U64Slice()
		if err := r.Done(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(gu) != n || len(gi) != n || len(gf) != n || len(ga) != n {
			t.Fatalf("n=%d: block reads returned %d/%d/%d/%d elements", n, len(gu), len(gi), len(gf), len(ga))
		}
		for s := 0; s < 4; s++ {
			if c := per.Count(8); c != n {
				t.Fatalf("n=%d: per-element count %d", n, c)
			}
			for i := 0; i < n; i++ {
				switch v := per.U64(); s {
				case 0:
					if gu[i] != v {
						t.Fatalf("n=%d: uint64[%d] = %d, per-element read %d", n, i, gu[i], v)
					}
				case 1:
					if gi[i] != int64(v) {
						t.Fatalf("n=%d: int64[%d] = %d, per-element read %d", n, i, gi[i], int64(v))
					}
				case 2:
					if math.Float64bits(gf[i]) != v {
						t.Fatalf("n=%d: float64[%d] bits %x, per-element read %x", n, i, math.Float64bits(gf[i]), v)
					}
				case 3:
					if ga[i] != v {
						t.Fatalf("n=%d: atomic[%d] = %d, per-element read %d", n, i, ga[i], v)
					}
				}
			}
		}
	}
}

// TestBlockCodecByWord: the word-at-a-time codec a big-endian host
// takes writes and reads the bytes the per-element writer does, so the
// copy a little-endian host takes and it are one format. Both run here,
// whatever the host.
func TestBlockCodecByWord(t *testing.T) {
	for _, n := range blockLens {
		vs := make([]uint64, n)
		want := NewWriter(TagKLL, 1)
		for i := range vs {
			vs[i] = uint64(i+1) * 0x9e3779b97f4a7c15
			want.U64(vs[i])
		}
		got := NewWriter(TagKLL, 1)
		encodeByWord(got.extend(8*n), vs)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: encodeByWord differs from per-element writes", n)
		}
		if hostLittleEndian {
			copied := NewWriter(TagKLL, 1)
			encodeBlock(copied.extend(8*n), vs)
			if !bytes.Equal(copied.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d: the block copy differs from per-element writes", n)
			}
		}
		back := make([]uint64, n)
		decodeByWord(back, want.Bytes()[headerSize:])
		if !slices.Equal(back, vs) {
			t.Fatalf("n=%d: decodeByWord does not read back what was written", n)
		}
		// A block read from an odd offset: the wire promises no alignment.
		odd := append([]byte{0}, want.Bytes()[headerSize:]...)
		clear(back)
		decodeBlock(back, odd[1:])
		if !slices.Equal(back, vs) {
			t.Fatalf("n=%d: a block at an odd offset does not read back", n)
		}
	}
}

// TestBlockTruncatedAtEveryOffset cuts an envelope at every byte inside
// and before a block: each cut is ErrCorrupt, never a panic, and the
// reader allocates nothing the bytes present did not pay for — far less
// than the 512 KB the block's count declares.
func TestBlockTruncatedAtEveryOffset(t *testing.T) {
	w := NewWriter(TagKLL, 1)
	w.F64Slice(make([]float64, 3))
	w.U64Slice(make([]uint64, 1<<16)) // a 512 KB block
	data := w.Bytes()
	cuts := []int{len(data) - 1, len(data) - 8, len(data) / 2}
	for cut := headerSize; cut < headerSize+4+24+4+17; cut++ {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		read := func() {
			r, _, err := NewReader(data[:cut], TagKLL)
			if err != nil {
				t.Fatal(err)
			}
			r.F64Slice()
			if got := r.U64Slice(); got != nil {
				t.Errorf("cut=%d: U64Slice returned %d elements", cut, len(got))
			}
			if err := r.Done(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("cut=%d: Done() = %v, want ErrCorrupt", cut, err)
			}
		}
		if got := fewestBytes(read); got > 4096 {
			t.Errorf("cut=%d: a truncated block allocated %d bytes", cut, got)
		}
	}
	// ReadBlock into a caller-sized slice past the end fails the same way.
	r, _, _ := NewReader(data[:headerSize+4+24+4+16], TagKLL)
	r.F64Slice()
	r.U32()
	ReadBlock(r, make([]uint64, 3))
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadBlock past the end: %v, want ErrCorrupt", err)
	}
}

// fewestBytes is the least heap any of five calls of f allocated. The
// allocation counter is the process's, so another goroutine can only
// add to one call's reading: the minimum is f's own.
func fewestBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		f()
		runtime.ReadMemStats(&ms1)
		least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	return least
}

// TestCheckLenForgedCount: a count whose byte size wraps the int must
// be refused like any other too-large count. On a 32-bit build that is
// a count U32 can deliver (2^31-1 elements of 8 bytes); the product
// n·elemSize then wrapped to a small number and let a short payload
// through to a count-sized make.
func TestCheckLenForgedCount(t *testing.T) {
	for _, elemSize := range []int{8, 12, 16, 24} {
		for _, n := range []int{math.MaxInt/elemSize + 1, math.MaxInt / 2, math.MaxInt} {
			r, _, err := NewReader(buildEnvelope(TagHLL, 1), TagHLL)
			if err != nil {
				t.Fatal(err)
			}
			if r.checkLen(n, elemSize) {
				t.Errorf("checkLen(%d, %d) passed with %d bytes left", n, elemSize, r.Remaining())
			}
			if !errors.Is(r.Err(), ErrCorrupt) {
				t.Errorf("checkLen(%d, %d): Err() = %v, want ErrCorrupt", n, elemSize, r.Err())
			}
		}
	}
	// The same forgery through the public surface, for the counts a U32
	// can name on this build.
	w := NewWriter(TagHLL, 1)
	w.U32(math.MaxInt32) // 2^31-1 elements; 16 bytes follow
	w.U64(0)
	w.U64(0)
	for name, read := range map[string]func(r *Reader) bool{
		"U64Slice": func(r *Reader) bool { return r.U64Slice() == nil },
		"I64Slice": func(r *Reader) bool { return r.I64Slice() == nil },
		"F64Slice": func(r *Reader) bool { return r.F64Slice() == nil },
		"Count":    func(r *Reader) bool { return r.Count(8) == 0 },
	} {
		r, _, _ := NewReader(w.Bytes(), TagHLL)
		if !read(r) || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s accepted a forged count of 2^31-1: %v", name, r.Err())
		}
	}
}

// growSink makes the reference reservation below a heap allocation.
var growSink []byte

// TestAppendWriterOwnsNothing: an envelope appended to a caller's
// buffer leaves the prefix alone, equals the one NewWriter builds, and
// with the size reserved costs one reservation — nothing when the
// buffer already has the room.
func TestAppendWriterOwnsNothing(t *testing.T) {
	vs := make([]uint64, 512)
	for i := range vs {
		vs[i] = uint64(i)
	}
	fresh := NewWriter(TagHLL, 1)
	fresh.U64Slice(vs)
	build := func(dst []byte) []byte {
		w := AppendWriter(dst, TagHLL, 1, 4+8*len(vs))
		w.U64Slice(vs)
		return w.Bytes()
	}
	prefix := []byte("prefix")
	out := build(prefix)
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], fresh.Bytes()) {
		t.Fatal("AppendWriter(prefix) is not prefix + the NewWriter envelope")
	}
	// What one reservation costs: 1, or 2 under the race detector, where
	// the make inside slices.Grow is materialised.
	once := testing.AllocsPerRun(20, func() { growSink = slices.Grow([]byte(nil), len(out)) })
	if got := testing.AllocsPerRun(20, func() { build(nil) }); got != once {
		t.Errorf("a sized envelope took %v allocations, one reservation takes %v", got, once)
	}
	buf := make([]byte, 0, len(out))
	if got := testing.AllocsPerRun(20, func() { build(buf[:0]) }); got != 0 {
		t.Errorf("appending into a buffer with room took %v allocations, want 0", got)
	}
}

// chunkSink records what a Writer hands a Sink.
type chunkSink struct {
	size   int
	got    []byte
	chunks []*byte // where each chunk handed over lies
	sizes  []int
	lent   []byte
}

func (s *chunkSink) Begin(size int) error { s.size = size; return nil }
func (s *chunkSink) Lend() []byte         { return s.lent[:0] }
func (s *chunkSink) Write(p []byte) error {
	s.got = append(s.got, p...)
	s.chunks, s.sizes = append(s.chunks, &p[0]), append(s.sizes, len(p))
	return nil
}

// TestSinkWriter: a writer for a sink states the length first and hands
// over the same bytes AppendWriter appends; a plain block crosses as the
// words' own memory on a little-endian host, an atomic one a chunk at a
// time.
func TestSinkWriter(t *testing.T) {
	plain := make([]uint64, 3000)
	cells := make([]atomic.Uint64, 1500)
	for i := range plain {
		plain[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := range cells {
		cells[i].Store(uint64(i) << 7)
	}
	encode := func(dst []byte, s Sink) ([]byte, error) {
		w := OpenWriter(dst, s, TagCountMin, 3, 1+4+8*len(plain)+8*len(cells))
		w.U8(9)
		w.U64Slice(plain)
		WriteBlock(w, cells)
		return w.Finish()
	}
	want, _ := encode(nil, nil)
	sink := &chunkSink{lent: make([]byte, 0, 4<<10)}
	if out, err := encode(nil, sink); out != nil || err != nil {
		t.Fatalf("Finish for a sink = %d bytes, %v; want none, nil", len(out), err)
	}
	if sink.size != len(want) || !bytes.Equal(sink.got, want) {
		t.Fatalf("sink told %d bytes and given %d; want the %d AppendWriter appends", sink.size, len(sink.got), len(want))
	}
	words := &bytesOf(plain)[0]
	if hostLittleEndian && !slices.Contains(sink.chunks, words) {
		t.Error("the plain block was copied on its way to the sink")
	}
	for i, n := range sink.sizes {
		if n > sinkChunk && sink.chunks[i] != words {
			t.Errorf("a gathered chunk of %d bytes, want at most %d", n, sinkChunk)
		}
	}
}
