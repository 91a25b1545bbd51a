package core

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Writer accumulates a sketch serialization.
type Writer struct {
	buf []byte
}

// NewWriter starts an envelope for the given sketch tag and version.
func NewWriter(tag, version byte) *Writer {
	w := &Writer{buf: make([]byte, 0, 64)}
	w.buf = append(w.buf, wireMagic...)
	w.buf = append(w.buf, tag, version)
	return w
}

// Bytes returns the accumulated serialization.
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

// U64Slice appends a length-prefixed slice of uint64.
func (w *Writer) U64Slice(vs []uint64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// I64Slice appends a length-prefixed slice of int64.
func (w *Writer) I64Slice(vs []int64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.I64(v)
	}
}

// F64Slice appends a length-prefixed slice of float64.
func (w *Writer) F64Slice(vs []float64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.F64(v)
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

// U64Slice reads a length-prefixed slice of uint64.
func (r *Reader) U64Slice() []uint64 {
	n := int(r.U32())
	if r.err != nil || !r.checkLen(n, 8) {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// I64Slice reads a length-prefixed slice of int64.
func (r *Reader) I64Slice() []int64 {
	n := int(r.U32())
	if r.err != nil || !r.checkLen(n, 8) {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// F64Slice reads a length-prefixed slice of float64.
func (r *Reader) F64Slice() []float64 {
	n := int(r.U32())
	if r.err != nil || !r.checkLen(n, 8) {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	if r.err != nil {
		return nil
	}
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
	if n < 0 || n*elemSize > len(r.buf)-r.off {
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
