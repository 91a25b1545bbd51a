package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Wire is the shared binary serialization envelope. Every sketch
// serialization in this module begins with a 4-byte magic, a one-byte
// sketch-type tag and a one-byte version, followed by sketch-specific
// fields written with the little-endian helpers below. The envelope
// lets a reader reject foreign or truncated bytes early with a precise
// error instead of decoding garbage.
const wireMagic = "GSK1"

// Sketch-type tags used in serialization headers. Tags are append-only:
// never renumber a released tag.
const (
	TagBloom byte = iota + 1
	TagCountingBloom
	TagMorris
	TagFM
	TagLogLog
	TagHLL
	TagKMV
	TagCountMin
	TagCountSketch
	TagMisraGries
	TagSpaceSaving
	TagAMS
	TagGK
	TagQDigest
	TagKLL
	TagTDigest
	TagReservoir
	TagWeightedReservoir
	TagL0Sampler
	TagMinHash
	TagSimHash
	TagGraphSketch
	TagMRL
	TagNelsonYu
	TagHLLPP
	TagTheta
	TagREQ
	TagSparseRecovery
	TagL0SamplerFull
	TagBlockedBloom
	TagRobustDistinct
	TagSFSketch
	TagProjection // registry.Projection: not a sketch, the cells one query reads
)

// TagMax is the highest assigned sketch-type tag. The registry's
// exhaustiveness test walks [1, TagMax] and requires every tag to be
// either registered with a descriptor or explicitly reserved, so a new
// tag constant cannot be added without also deciding how it decodes.
const TagMax = TagProjection

// PeekTag returns the sketch-type tag of a serialized envelope without
// decoding the payload — the dispatch point for generic, self-
// describing decoding (registry.Decode): any GSK1 payload names its own
// type in byte 4.
func PeekTag(data []byte) (byte, error) {
	if len(data) < 6 {
		return 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(data[:4]) != wireMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	return data[4], nil
}

// headerSize is the bytes every envelope starts with: magic, tag, version.
const headerSize = 6

// Writer writes a sketch serialization: into a buffer it returns
// (AppendWriter), or to a Sink as it goes (OpenWriter with a sink).
type Writer struct {
	buf  []byte
	sink Sink
	err  error // with a sink: the first error it returned
}

// Sink takes an envelope as it is written, in place of a buffer that
// holds it whole: a snapshot cut streams each sketch into its file.
type Sink interface {
	// Begin is told the envelope's exact length before its first byte.
	Begin(size int) error
	// Write takes the envelope's next bytes. They may be a sketch's own
	// words, valid only until Write returns.
	Write(p []byte) error
	// Lend returns an empty buffer of the sink's, for the bytes an
	// encoder gathers on their way to Write.
	Lend() []byte
}

// NewWriter starts an envelope for the given sketch tag and version in
// a buffer of its own.
func NewWriter(tag, version byte) *Writer {
	return AppendWriter(nil, tag, version, 64-headerSize)
}

// AppendWriter starts an envelope at the end of dst, which the caller
// owns, with room reserved for the header and size more bytes. A
// marshaller that knows its payload size passes it here, so that the
// envelope is written in one pass into one allocation — or into none,
// when dst already has the room.
func AppendWriter(dst []byte, tag, version byte, size int) *Writer {
	w := new(Writer)
	w.start(dst, tag, version, size)
	return w
}

// OpenWriter starts an envelope of the header and size more bytes: for
// s when s is set, else at the end of dst as AppendWriter does. A
// writer for a sink tells it the length first, gathers the small
// fields in the buffer the sink lends, and hands a block of plain words
// over as their own memory on a little-endian host, so that no copy of
// the envelope is ever made. The sink holds the encoder to the size it
// was told.
func OpenWriter(dst []byte, s Sink, tag, version byte, size int) *Writer {
	w := &Writer{sink: s}
	w.start(dst, tag, version, size)
	return w
}

func (w *Writer) start(dst []byte, tag, version byte, size int) {
	if w.sink == nil {
		w.buf = slices.Grow(dst, headerSize+size)
	} else {
		w.buf = w.sink.Lend()[:0]
		w.err = w.sink.Begin(headerSize + size)
	}
	w.buf = append(w.buf, wireMagic...)
	w.buf = append(w.buf, tag, version)
}

// Finish completes the envelope and returns what AppendWriter's buffer
// now holds, or, for a sink, nil and the first error the sink returned.
func (w *Writer) Finish() ([]byte, error) {
	if w.sink == nil {
		return w.buf, nil
	}
	w.flush()
	return nil, w.err
}

// flush hands the gathered bytes to the sink.
func (w *Writer) flush() {
	if len(w.buf) > 0 {
		w.give(w.buf)
		w.buf = w.buf[:0]
	}
}

// give hands p to the sink; its first error stops every later write.
func (w *Writer) give(p []byte) {
	if w.err == nil {
		w.err = w.sink.Write(p)
	}
}

// Bytes returns the accumulated serialization: whatever AppendWriter
// was handed, then the envelope. A writer opened on a sink holds no
// envelope: Finish it.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v byte) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) BytesField(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Word is an element the block codec moves: eight little-endian bytes.
// An atomic.Uint64 is a cell of a table its writers are still updating;
// each is loaded once, straight into the envelope.
type Word interface {
	uint64 | int64 | float64 | atomic.Uint64
}

// plainWord is a Word whose memory is its eight bytes: on a
// little-endian host a block of them already is the bytes the wire
// holds, and crosses in one copy.
type plainWord interface{ uint64 | int64 | float64 }

// hostLittleEndian says the host stores a word in the wire's byte
// order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// extend appends n bytes for the caller to fill: the one reservation of
// a block append.
func (w *Writer) extend(n int) []byte {
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:at+n]
	return w.buf[at:]
}

// sliceRoom writes the count of an n-element slice and returns the
// bytes its block goes into.
func (w *Writer) sliceRoom(n int) []byte {
	w.buf = slices.Grow(w.buf, 4+8*n)
	w.U32(uint32(n))
	return w.extend(8 * n)
}

// WriteBlock appends vs with no length prefix: one reservation, then
// one copy into a destination sliced to size, where a U64 per element
// would re-check (and now and then regrow) the buffer per element.
func WriteBlock[T Word](w *Writer, vs []T) {
	if w.sink != nil {
		sinkBlock(w, vs)
		return
	}
	putWords(w.extend(8*len(vs)), vs)
}

// WriteSlice appends a length-prefixed block: the form U64Slice, I64Slice
// and F64Slice write, for a caller generic over the element type.
func WriteSlice[T Word](w *Writer, vs []T) {
	if w.sink != nil {
		w.U32(uint32(len(vs)))
		sinkBlock(w, vs)
		return
	}
	putWords(w.sliceRoom(len(vs)), vs)
}

// sinkChunk is the most a block that is not plain words on a
// little-endian host puts in the gathering buffer at once, flushed
// before and after, so that a lent buffer of 4 KB is never outgrown.
const sinkChunk = 4 << 10

// sinkBlock hands a block to the sink: plain words on a little-endian
// host as their own memory, anything else a chunk at a time through the
// gathering buffer — atomic cells loaded, words put in wire order.
func sinkBlock[T Word](w *Writer, vs []T) {
	w.flush()
	if hostLittleEndian {
		switch vs := any(vs).(type) {
		case []uint64:
			w.give(bytesOf(vs))
			return
		case []int64:
			w.give(bytesOf(wordsOf(vs)))
			return
		case []float64:
			w.give(bytesOf(wordsOf(vs)))
			return
		}
	}
	for len(vs) > 0 {
		n := min(len(vs), sinkChunk/8)
		putWords(w.extend(8*n), vs[:n])
		w.flush()
		vs = vs[n:]
	}
}

func putWords[T Word](dst []byte, vs []T) {
	switch vs := any(vs).(type) {
	case []uint64:
		encodeBlock(dst, vs)
	case []int64:
		encodeBlock(dst, wordsOf(vs))
	case []float64:
		encodeBlock(dst, wordsOf(vs))
	case []atomic.Uint64:
		for i := range vs {
			binary.LittleEndian.PutUint64(dst, vs[i].Load())
			dst = dst[8:]
		}
	}
}

// U64Slice appends a length-prefixed slice of uint64. (The three slice
// methods fill their block themselves: a call into a generic function
// from code inlined into another package makes the Writer escape.)
func (w *Writer) U64Slice(vs []uint64) { w.plainSlice(vs) }

// I64Slice appends a length-prefixed slice of int64.
func (w *Writer) I64Slice(vs []int64) { w.plainSlice(wordsOf(vs)) }

// F64Slice appends a length-prefixed slice of float64.
func (w *Writer) F64Slice(vs []float64) { w.plainSlice(wordsOf(vs)) }

func (w *Writer) plainSlice(vs []uint64) {
	if w.sink != nil {
		w.U32(uint32(len(vs)))
		sinkBlock(w, vs)
		return
	}
	encodeBlock(w.sliceRoom(len(vs)), vs)
}

// wordsOf is vs's memory as the uint64 words it holds: an int64 or a
// float64 travels as its bits.
func wordsOf[T plainWord](vs []T) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs))
}

// bytesOf is vs's memory as bytes.
func bytesOf(vs []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

// encodeBlock writes vs into dst, 8·len(vs) bytes: one copy of their
// memory on a little-endian host, a word at a time on any other.
func encodeBlock(dst []byte, vs []uint64) {
	if hostLittleEndian {
		copy(dst, bytesOf(vs))
		return
	}
	encodeByWord(dst, vs)
}

// decodeBlock fills out from the 8·len(out) bytes of src, the inverse
// of encodeBlock.
func decodeBlock(out []uint64, src []byte) {
	if hostLittleEndian {
		copy(bytesOf(out), src)
		return
	}
	decodeByWord(out, src)
}

// encodeByWord and decodeByWord are the block codec where a word's
// memory is not its wire form.
func encodeByWord(dst []byte, vs []uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(dst, v)
		dst = dst[8:]
	}
}

func decodeByWord(out []uint64, src []byte) {
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(src)
		src = src[8:]
	}
}

// Reader decodes a sketch serialization, validating the envelope.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader validates the envelope of data against the expected tag and
// returns a reader positioned after the header together with the
// serialization version.
func NewReader(data []byte, tag byte) (*Reader, byte, error) {
	if len(data) < 6 {
		return nil, 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(data[:4]) != wireMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != tag {
		return nil, 0, fmt.Errorf("%w: sketch tag %d, want %d", ErrCorrupt, data[4], tag)
	}
	return &Reader{buf: data, off: 6}, data[5], nil
}

// NewReaderVersioned validates the envelope like NewReader and
// additionally rejects serializations written by a format version newer
// than the caller supports. Decoders that evolve their payload layout
// use it so that bytes from a future writer fail fast with ErrCorrupt
// instead of being misparsed field by field.
func NewReaderVersioned(data []byte, tag, maxVersion byte) (*Reader, byte, error) {
	r, version, err := NewReader(data, tag)
	if err != nil {
		return nil, 0, err
	}
	if version == 0 || version > maxVersion {
		return nil, 0, fmt.Errorf("%w: serialization version %d, support <= %d",
			ErrCorrupt, version, maxVersion)
	}
	return r, version, nil
}

// Err reports the first decoding error, if any. Callers check it once
// after reading all fields.
func (r *Reader) Err() error { return r.err }

// Remaining is the number of bytes not yet read: what a decoder that
// knows its shape checks before it allocates for it.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Offset is the number of bytes read so far, the header included: where
// in the envelope the next field starts.
func (r *Reader) Offset() int { return r.off }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, r.off)
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// BytesField reads a length-prefixed byte slice (copied out).
func (r *Reader) BytesField() []byte {
	n := int(r.U32())
	if r.err != nil || !r.checkLen(n, 1) || !r.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

// ReadBlock fills out from the next 8·len(out) bytes, the inverse of
// WriteBlock: one bounds check and one copy for the block. The caller
// sized out, so it has already compared the length it trusts with
// Remaining.
func ReadBlock[T plainWord](r *Reader, out []T) {
	if !r.need(8 * len(out)) {
		return
	}
	decodeBlock(wordsOf(out), r.buf[r.off:])
	r.off += 8 * len(out)
}

// U64Slice reads a length-prefixed slice of uint64.
func (r *Reader) U64Slice() []uint64 { return readSlice[uint64](r) }

// I64Slice reads a length-prefixed slice of int64.
func (r *Reader) I64Slice() []int64 { return readSlice[int64](r) }

// F64Slice reads a length-prefixed slice of float64.
func (r *Reader) F64Slice() []float64 { return readSlice[float64](r) }

// readSlice allocates only once the count has been checked against the
// bytes present.
func readSlice[T plainWord](r *Reader) []T {
	n := int(r.U32())
	if r.err != nil || !r.checkLen(n, 8) {
		return nil
	}
	out := make([]T, n)
	ReadBlock(r, out)
	return out
}

// Count reads a U32 element count for a sequence the caller decodes
// manually, rejecting counts whose payload (elemSize bytes per element,
// the minimum on-wire size) could not fit in the remaining buffer. Use
// this instead of a raw U32 before any count-sized allocation or loop:
// a corrupt count of ~4 billion would otherwise turn UnmarshalBinary
// into a multi-gigabyte allocation or a multi-second spin.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil || !r.checkLen(n, elemSize) {
		return 0
	}
	return n
}

// checkLen rejects length prefixes that would exceed the remaining
// buffer, preventing huge allocations on corrupt input.
func (r *Reader) checkLen(n, elemSize int) bool {
	// Dividing the room, not multiplying the count: n·elemSize wraps a
	// 32-bit int for a forged count and would pass.
	if n < 0 || n > (len(r.buf)-r.off)/elemSize {
		r.err = fmt.Errorf("%w: implausible length %d", ErrCorrupt, n)
		return false
	}
	return true
}

// Done verifies the whole buffer was consumed and returns the first
// error encountered, if any.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}
