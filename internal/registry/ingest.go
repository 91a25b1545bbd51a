package registry

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/hashx"
)

// The ingest builders below turn one typed update function into a batch
// Ingest binding with a uniform contract: every line is parsed and
// validated before the first update — so a bad line rejects the whole
// batch with ErrInput and no partial state, and a WAL record is a batch
// that applied whole. A line format with something to parse (a weight,
// a sign, a value, a delta, an edge) goes through parsedIngest: one
// pass parses each line once into a pooled block of two values a line,
// and the block, not the text, is what gets applied. For the
// hashed-counter holders the two values are (XXHash64(item, seed),
// weight) and the apply is their weighted batch kernel, so a served
// Count-Min line is split, parsed and hashed once, outside the locked
// holder's mutex, and reaches the plain batch kernel under it; an HLL or
// blocked-Bloom line is hashed the same way, into the two Murmur3_128
// words (hashedIngest). Measured
// on the benchmark's ingest_mem mix (a 12 s `sketchd -pprof` CPU
// profile of the live process, 2 vCPUs, when the blocked Bloom was still
// served by its atomic holder), the kernels and their hashes are two
// fifths of sketchd's CPU: the atomic blocked-Bloom batch 11 % (the top
// kernel), Count-Min's weighted batch 9.5 % (the mutex around it below
// 0.5 %), Murmur3_128 7 %, XXHash64 5.4 %, HLL 2 %; line splitting is
// 9 %, and the rest is net/http, the scheduler and the loopback socket
// (syscalls 14 %). Two writers sending 1024-line
// bodies to one Count-Min take turns only for the kernel, and pay the
// wall time a line that four atomic adds a line did
// (Hot/RegistryCountMinWeightedIngestParallel).

// errBadWeight is the shared parse failure; callers wrap it with the
// offending bytes.
var errBadWeight = errors.New("expect decimal uint64")

// errBadSigned is the signed-integer parse failure.
var errBadSigned = errors.New("expect decimal int64")

// errBadFloatWeight is the weighted-reservoir weight parse failure.
var errBadFloatWeight = errors.New("expect float64 > 0")

// LastTab returns the index of the last tab in b, or -1. Ingest
// formats put the optional weight after the last tab so items may
// themselves contain tabs.
func LastTab(b []byte) int {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == '\t' {
			return i
		}
	}
	return -1
}

// ParseWeight decodes a decimal uint64 from b without allocating — the
// strconv.ParseUint(string(b), …) it replaces copied every weight
// suffix onto the heap once per ingested line.
func ParseWeight(b []byte) (uint64, error) {
	if len(b) == 0 || len(b) > 20 {
		return 0, errBadWeight
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errBadWeight
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, errBadWeight
		}
		v = v*10 + d
	}
	return v, nil
}

// parseSigned decodes a decimal int64 with an optional leading sign,
// allocation-free like ParseWeight.
func parseSigned(b []byte) (int64, error) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	u, err := ParseWeight(b)
	if err != nil {
		return 0, errBadSigned
	}
	if neg {
		if u > 1<<63 {
			return 0, errBadSigned
		}
		return -int64(u), nil
	}
	if u > 1<<63-1 {
		return 0, errBadSigned
	}
	return int64(u), nil
}

// block is one batch, parsed: line i became a[i], b[i].
type block[A, B any] struct {
	a []A
	b []B
}

// parsedIngest is the one validate-then-apply helper. parse turns a
// line into its two values or refuses it (wrapping ErrInput); apply
// runs only once the last line has parsed, over the whole block.
// Neither may retain the lines. An instance behind the locked holder is
// locked around apply alone, so parse runs beside another request's
// apply and may read of the instance only what is fixed at construction
// (Seed(), q-digest's logU, a graph's vertex count). The blocks are
// recycled per binding — 16 KB for a 1024-line request of (hash,
// weight), none allocated in steady state.
func parsedIngest[T, A, B any](
	parse func(c T, line []byte) (A, B, error),
	apply func(c T, a []A, b []B),
) func(any, [][]byte) error {
	return parsedIngestOf(func(c T) T { return c }, parse, func(c T, l *locked, a []A, b []B) {
		l.lock()
		defer l.unlock() // deferred so that a panicking update does not wedge the sketch
		apply(c, a, b)
	})
}

// parsedIngestOf is parsedIngest whose parse sees, in place of the
// instance, what of reads from it once per batch — a hashed family's
// seed — and whose apply is handed the holder, to lock or to buffer.
func parsedIngestOf[T, K, A, B any](
	of func(c T) K,
	parse func(k K, line []byte) (A, B, error),
	apply func(c T, l *locked, a []A, b []B),
) func(any, [][]byte) error {
	pool := sync.Pool{New: func() any { return new(block[A, B]) }}
	return func(inst any, lines [][]byte) error {
		c, l, err := cast[T](inst)
		if err != nil {
			return err
		}
		k := of(c)
		blk := pool.Get().(*block[A, B])
		a, b := blk.a[:0], blk.b[:0]
		for _, line := range lines {
			var x A
			var y B
			if x, y, err = parse(k, line); err != nil {
				break
			}
			a, b = append(a, x), append(b, y)
		}
		if err == nil {
			apply(c, l, a, b)
		}
		clear(a) // a format that keeps items as bytes has slices of the request body here
		blk.a, blk.b = a, b
		pool.Put(blk)
		return err
	}
}

// each applies a block one line at a time, in order.
func each[T, A, B any](add func(T, A, B)) func(T, []A, []B) {
	return func(c T, a []A, b []B) {
		for i := range a {
			add(c, a[i], b[i])
		}
	}
}

// cutWeight splits "item[\tweight]" at the last tab and decodes the
// weight (default one) with dec; what names the field in the error.
func cutWeight[W any](line []byte, one W, what string, dec func([]byte) (W, error)) ([]byte, W, error) {
	tab := LastTab(line)
	if tab < 0 {
		return line, one, nil
	}
	w, err := dec(line[tab+1:])
	if err != nil {
		return nil, one, fmt.Errorf("%w: %s %q: %v", ErrInput, what, line[tab+1:], err)
	}
	return line[:tab], w, nil
}

// uintField decodes a whole field as a decimal uint64.
func uintField(field []byte, what string) (uint64, error) {
	v, err := ParseWeight(field)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q: %v", ErrInput, what, field, err)
	}
	return v, nil
}

// batchItemsIngest: InputItems for types with a pipelined batch entry
// point (AddBatch hashes each chunk fully before updating; DESIGN.md
// §7.3 says for which kernels that alone makes the misses overlap).
// The batch function must not retain the item slices.
func batchItemsIngest[T any](addBatch func(T, [][]byte)) func(any, [][]byte) error {
	return func(inst any, items [][]byte) error {
		c, l, err := cast[T](inst)
		if err != nil {
			return err
		}
		l.lock()
		defer l.unlock()
		addBatch(c, items)
		return nil
	}
}

// itemsIngest: InputItems. The add function must not retain the item
// slice (or must copy, as the sample types do).
func itemsIngest[T any](add func(T, []byte)) func(any, [][]byte) error {
	return batchItemsIngest(func(c T, items [][]byte) {
		for _, item := range items {
			add(c, item)
		}
	})
}

// weightedIngest: InputWeightedItems, the item kept as bytes.
func weightedIngest[T any](add func(T, []byte, uint64)) func(any, [][]byte) error {
	return parsedIngest(
		func(_ T, line []byte) ([]byte, uint64, error) { return cutWeight(line, 1, "weight", ParseWeight) },
		each(add))
}

// hashedIngest is the one ingest binding of a hashed family (countmin,
// hll, blockedbloom). parse makes a line two words under the seed, read
// once per batch — (XXHash64, weight) or Murmur3_128's two halves — so
// every line is hashed where it is parsed, outside the lock, and the
// block of words is kernel's argument: applied under the holder's lock,
// or handed to a buffered holder's buffer, whose propagator applies it
// under that lock a flush half at a time.
func hashedIngest[T interface{ Seed() uint64 }](
	parse func(seed uint64, line []byte) (uint64, uint64, error),
	kernel func(c T, a, b []uint64),
) func(any, [][]byte) error {
	return parsedIngestOf(
		func(c T) uint64 { return c.Seed() },
		parse,
		func(c T, l *locked, a, b []uint64) {
			if buf := l.buffer(); buf != nil {
				buf.Add(a, b)
				return
			}
			l.lock()
			defer l.unlock()
			kernel(c, a, b)
		})
}

// weightedHash is the line parse of InputWeightedItems into
// (XXHash64(item, seed), weight).
func weightedHash(seed uint64, line []byte) (uint64, uint64, error) {
	item, w, err := cutWeight(line, 1, "weight", ParseWeight)
	return hashx.XXHash64(item, seed), w, err
}

// itemHash is the line parse of InputItems into Murmur3_128(item, seed).
func itemHash(seed uint64, line []byte) (uint64, uint64, error) {
	h1, h2 := hashx.Murmur3_128(line, seed)
	return h1, h2, nil
}

// kernelOf is a typed batch kernel as Descriptor.Kernel takes it.
func kernelOf[T any](kernel func(c T, a, b []uint64)) func(any, []uint64, []uint64) {
	return func(inst any, a, b []uint64) { kernel(inst.(T), a, b) }
}

// stringWeightedIngest: InputWeightedItems for string-keyed sketches
// (Misra-Gries, SpaceSaving). The string conversion copies, which
// doubles as the no-retention guarantee.
func stringWeightedIngest[T any](add func(T, string, uint64)) func(any, [][]byte) error {
	return weightedIngest[T](func(c T, item []byte, weight uint64) {
		add(c, string(item), weight)
	})
}

// signedIngest: InputSignedItems.
func signedIngest[T any](add func(T, []byte, int64)) func(any, [][]byte) error {
	return parsedIngest(
		func(_ T, line []byte) ([]byte, int64, error) { return cutWeight(line, 1, "weight", parseSigned) },
		each(add))
}

// floatIngest: InputFloats.
func floatIngest[T any](add func(T, float64)) func(any, [][]byte) error {
	return parsedIngest(
		func(_ T, line []byte) (float64, struct{}, error) {
			v, err := strconv.ParseFloat(string(line), 64)
			if err != nil {
				err = fmt.Errorf("%w: value %q: %v", ErrInput, line, err)
			}
			return v, struct{}{}, err
		},
		each(func(c T, v float64, _ struct{}) { add(c, v) }))
}

// uintValuesIngest: InputUintValues. check rejects values outside the
// instance's domain before any update (q-digest panics past 2^logU).
func uintValuesIngest[T any](check func(T, uint64) error, add func(T, uint64, uint64)) func(any, [][]byte) error {
	return parsedIngest(
		func(c T, line []byte) (uint64, uint64, error) {
			field, w, err := cutWeight(line, 1, "weight", ParseWeight)
			if err != nil {
				return 0, 0, err
			}
			v, err := uintField(field, "value")
			if err == nil && check != nil {
				if err = check(c, v); err != nil {
					err = fmt.Errorf("%w: %v", ErrInput, err)
				}
			}
			return v, w, err
		},
		each(add))
}

// turnstileIngest: InputTurnstile.
func turnstileIngest[T any](update func(T, uint64, int64)) func(any, [][]byte) error {
	return parsedIngest(
		func(_ T, line []byte) (uint64, int64, error) {
			field, delta, err := cutWeight(line, 1, "delta", parseSigned)
			if err != nil {
				return 0, 0, err
			}
			idx, err := uintField(field, "index")
			return idx, delta, err
		},
		each(update))
}

// eventsIngest: InputEvents — each line is one occurrence.
func eventsIngest[T any](incN func(T, uint64)) func(any, [][]byte) error {
	return batchItemsIngest(func(c T, items [][]byte) { incN(c, uint64(len(items))) })
}

// weightedFloatIngest: InputWeightedFloatItems (weighted reservoir;
// its Add panics on weight <= 0, so the parse rejects those).
func weightedFloatIngest[T any](add func(T, []byte, float64)) func(any, [][]byte) error {
	positive := func(field []byte) (float64, error) {
		w, err := strconv.ParseFloat(string(field), 64)
		if err != nil || !(w > 0) {
			return 0, errBadFloatWeight
		}
		return w, nil
	}
	return parsedIngest(
		func(_ T, line []byte) ([]byte, float64, error) { return cutWeight(line, 1, "weight", positive) },
		each(add))
}
