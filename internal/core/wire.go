package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
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

// Writer accumulates a sketch serialization.
type Writer struct {
	buf []byte
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
	w := &Writer{buf: slices.Grow(dst, headerSize+size)}
	w.buf = append(w.buf, wireMagic...)
	w.buf = append(w.buf, tag, version)
	return w
}

// Bytes returns the accumulated serialization: whatever AppendWriter
// was handed, then the envelope.
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
// one pass over a destination sliced to size, where a U64 per element
// would re-check (and now and then regrow) the buffer per element.
func WriteBlock[T Word](w *Writer, vs []T) { putWords(w.extend(8*len(vs)), vs) }

// WriteSlice appends a length-prefixed block: the form U64Slice, I64Slice
// and F64Slice write, for a caller generic over the element type.
func WriteSlice[T Word](w *Writer, vs []T) { putWords(w.sliceRoom(len(vs)), vs) }

func putWords[T Word](dst []byte, vs []T) {
	switch vs := any(vs).(type) {
	case []uint64:
		putU64s(dst, vs)
	case []int64:
		putI64s(dst, vs)
	case []float64:
		putF64s(dst, vs)
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
func (w *Writer) U64Slice(vs []uint64) { putU64s(w.sliceRoom(len(vs)), vs) }

// I64Slice appends a length-prefixed slice of int64.
func (w *Writer) I64Slice(vs []int64) { putI64s(w.sliceRoom(len(vs)), vs) }

// F64Slice appends a length-prefixed slice of float64.
func (w *Writer) F64Slice(vs []float64) { putF64s(w.sliceRoom(len(vs)), vs) }

func putU64s(dst []byte, vs []uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(dst, v)
		dst = dst[8:]
	}
}

func putI64s(dst []byte, vs []int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(dst, uint64(v))
		dst = dst[8:]
	}
}

func putF64s(dst []byte, vs []float64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v))
		dst = dst[8:]
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
// WriteBlock: one bounds check for the block. The caller sized out, so
// it has already compared the length it trusts with Remaining.
func ReadBlock[T uint64 | int64 | float64](r *Reader, out []T) {
	if !r.need(8 * len(out)) {
		return
	}
	src := r.buf[r.off : r.off+8*len(out)]
	r.off += len(src)
	switch out := any(out).(type) {
	case []uint64:
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(src)
			src = src[8:]
		}
	case []int64:
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(src))
			src = src[8:]
		}
	case []float64:
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
			src = src[8:]
		}
	}
}

// U64Slice reads a length-prefixed slice of uint64.
func (r *Reader) U64Slice() []uint64 { return readSlice[uint64](r) }

// I64Slice reads a length-prefixed slice of int64.
func (r *Reader) I64Slice() []int64 { return readSlice[int64](r) }

// F64Slice reads a length-prefixed slice of float64.
func (r *Reader) F64Slice() []float64 { return readSlice[float64](r) }

// readSlice allocates only once the count has been checked against the
// bytes present.
func readSlice[T uint64 | int64 | float64](r *Reader) []T {
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
