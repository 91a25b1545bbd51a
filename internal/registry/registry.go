// Package registry is the self-describing sketch type system: one
// Descriptor per sketch family binds the family's wire tag, canonical
// name, parameter schema (defaults and bounds), constructor, decoder,
// and capability closures (ingest / query / merge) in a single place.
// Every layer that used to enumerate types by hand — the sketchd entry
// switch, the facade constructors, the CLI — consults the registry
// instead, so adding a sketch family to the whole stack is one
// descriptor, and any serialized GSK1 payload can be decoded without
// knowing its concrete type up front (Decode reads the envelope tag
// and dispatches). This is the Mergeable Summaries contract the paper
// builds on — update, merge, serialize — made explicit as data.
package registry

import (
	"encoding"
	"errors"
	"fmt"
	"math"
	"net/url"
	"sort"
	"sync"

	"repro/internal/concurrent"
	"repro/internal/core"
)

// ErrUnknownType is returned when a name has no registered descriptor.
var ErrUnknownType = errors.New("registry: unknown sketch type")

// ErrParams is returned for creation parameters outside a descriptor's
// schema: unknown names, out-of-bounds values, or non-integral values
// for integer parameters.
var ErrParams = errors.New("registry: bad sketch parameters")

// ErrInput is returned by ingest bindings for lines that do not parse
// under the descriptor's input kind. Ingest validates the whole batch
// before applying any of it, so an ErrInput means no partial state.
var ErrInput = errors.New("registry: bad input line")

// ErrNoWire is returned by AppendMarshal for an instance with no
// MarshalBinary.
var ErrNoWire = errors.New("registry: instance does not serialize")

// InputKind names the line format a descriptor's Ingest binding
// accepts, one line per item in a newline-delimited batch. It is
// machine-readable (exposed on GET /v1/types) so clients and tests can
// generate well-formed input without per-type knowledge.
type InputKind int

const (
	// InputNone marks a type with no streaming ingest (not servable).
	InputNone InputKind = iota
	// InputItems: each line is one opaque set element.
	InputItems
	// InputWeightedItems: "item" or "item\tweight", weight a decimal
	// uint64 (default 1).
	InputWeightedItems
	// InputSignedItems: "item" or "item\tweight", weight a decimal
	// int64 with optional sign (default 1).
	InputSignedItems
	// InputFloats: each line is one float64 value.
	InputFloats
	// InputUintValues: "value" or "value\tweight", both decimal uint64
	// (weight default 1); value must lie in the sketch's domain.
	InputUintValues
	// InputTurnstile: "index\tdelta", index a decimal uint64, delta a
	// signed decimal int64 (default 1) — the turnstile stream model.
	InputTurnstile
	// InputEvents: each line is one occurrence of the counted event;
	// line content is ignored.
	InputEvents
	// InputEdges: "u\tv", decimal vertex ids in [0, vertices), u != v.
	InputEdges
	// InputWeightedFloatItems: "item" or "item\tweight", weight a
	// positive float64 (default 1).
	InputWeightedFloatItems
)

// String returns the line-format contract, suitable for API docs.
func (k InputKind) String() string {
	switch k {
	case InputItems:
		return "one item per line"
	case InputWeightedItems:
		return "item[\\tweight], weight uint64 (default 1)"
	case InputSignedItems:
		return "item[\\tweight], weight int64 (default 1)"
	case InputFloats:
		return "one float64 per line"
	case InputUintValues:
		return "value[\\tweight], both uint64 (weight default 1)"
	case InputTurnstile:
		return "index[\\tdelta], index uint64, delta int64 (default 1)"
	case InputEvents:
		return "one event per line (content ignored)"
	case InputEdges:
		return "u\\tv, vertex ids in [0,vertices), u != v"
	case InputWeightedFloatItems:
		return "item[\\tweight], weight float64 > 0 (default 1)"
	default:
		return "no streaming ingest"
	}
}

// Param is one entry of a descriptor's parameter schema. All values
// travel as float64 (the JSON number type); integer parameters set
// Float=false and reject fractional values. A zero raw value is
// indistinguishable from "absent" at the transport layer, so schemas
// are written with Min == 0 wherever 0 must mean "use the default" and
// constructors re-check semantic bounds.
type Param struct {
	Name  string
	Doc   string
	Def   float64 // default applied when the parameter is absent
	Min   float64 // inclusive lower bound for explicit values
	Max   float64 // inclusive upper bound for explicit values
	Float bool    // false: value must be integral
}

// Params is a validated parameter set: every schema parameter is
// present (explicit or default) and within bounds.
type Params struct {
	Seed uint64
	vals map[string]float64
}

// Float returns the named parameter.
func (p Params) Float(name string) float64 { return p.vals[name] }

// Int returns the named parameter as an int.
func (p Params) Int(name string) int { return int(p.vals[name]) }

// Uint64 returns the named parameter as a uint64.
func (p Params) Uint64(name string) uint64 { return uint64(p.vals[name]) }

// Uint8 returns the named parameter as a uint8.
func (p Params) Uint8(name string) uint8 { return uint8(p.vals[name]) }

// Bindings are the capability closures over a sketch family. A nil
// field means the capability is absent and the corresponding operation
// is gated off (no merge endpoint for non-mergeable types, no create
// for types without ingest+query). Closures receive the instance as
// `any` and cast it to the family's plain type — the bare sketch, or
// the sketch behind the locked holder, buffered or not — so one set
// drives them all; the generic builders below keep that cast — and, for
// an instance behind the locked holder, the lock and the buffer — in
// exactly one place per capability.
type Bindings struct {
	// Ingest folds a batch of newline-delimited lines in. It must
	// validate the whole batch before the first update (no partial
	// ingest on a bad line) and must not retain the item slices —
	// they alias a pooled server buffer.
	Ingest func(inst any, items [][]byte) error
	// Query answers the type's read operation from URL parameters.
	// With no parameters it returns a summary (estimate, shape, n —
	// whatever the family supports), so it doubles as "inspect".
	Query func(inst any, params url.Values) (map[string]any, error)
	// Merge folds src (a decoded instance of the same family's plain
	// type) into dst, returning core.ErrIncompatible on shape or seed
	// mismatch.
	Merge func(dst, src any) error
}

// Descriptor is one sketch family's registration: everything the rest
// of the stack needs to construct, decode, serve, and document the
// type, with no per-type code anywhere else.
type Descriptor struct {
	Tag    byte
	Name   string // canonical lowercase name ("hll", "countmin", …)
	Family string // grouping for docs ("cardinality", "quantile", …)
	Doc    string // one-line description
	Input  InputKind
	Params []Param

	// New constructs a plain single-threaded instance from validated
	// parameters.
	New func(p Params) (any, error)
	// Kernel, set on the hashed families (countmin, hll, blockedbloom),
	// is the plain instance's batch kernel over the two word slices their
	// ingest parse makes of a batch (hashedIngest). Hold puts a
	// local-buffer/global-propagation buffer in front of it when asked
	// for a buffered instance.
	Kernel func(inst any, a, b []uint64)
	// Decode deserializes a MarshalBinary envelope of this family's
	// plain type.
	Decode func(data []byte) (any, error)

	// Bind operates on every instance the descriptor builds.
	Bind Bindings
	// Serve is &Bind, which drives every instance; register sets it, no
	// descriptor does. It remains only because benchmark/layertrace, a
	// separate module, names it.
	Serve *Bindings

	// Project and Finish, set together, are the optional query-pushdown
	// capability (see Projection for the contract). Project reads, from
	// the plain instance — Projection unwraps, syncs and locks the
	// holder — the cells query needs and fills Shape, N and Cells; it
	// returns (nil, nil) for a query — or an instance — it cannot
	// project. Finish renders the result map Bind.Query would from the
	// merged cells.
	Project func(inst any, query url.Values) (*Projection, error)
	Finish  func(p *Projection, query url.Values) (map[string]any, error)

	// MergeWire is the optional wire-domain merge of a cell-wise family
	// (counter add, register max, bit OR), whose envelope is a fixed
	// header plus little-endian words, so that the merge is a function of
	// the bytes: it folds envelopes srcs into envelope dst in place, in one
	// pass over the tables, after which dst is, byte for byte,
	// Marshal(Merge(Decode(dst), Decode(srcs[0]), ...)). Every envelope is
	// validated as Decode validates it and compared with dst as Merge
	// compares them before the first byte of dst changes: an error
	// (core.ErrCorrupt, core.ErrIncompatible) leaves dst as it was. It
	// folds the leading srcs it can and says how many: it stops at — and,
	// for dst, declines at once, folding none — an envelope written before
	// the family's current wire version, whose header a re-marshal would
	// rewrite, or one that does not merge, and the caller decodes and
	// merges the rest. MergeEnvelopes is the caller.
	MergeWire func(dst []byte, srcs ...[]byte) (folded int, err error)

	// QueryMutates marks a family whose release changes its state:
	// robustdistinct's Estimate may burn a copy of its sketch switching,
	// which its envelope holds. A merge of the shards' states made for
	// one read and thrown away carries no such state, so a coordinator
	// refuses the family's /query as shard-local, and no reply of it is
	// ever stored to be written again.
	QueryMutates bool
}

// Mergeable reports whether live instances can absorb decoded peers.
func (d *Descriptor) Mergeable() bool { return d.Bind.Merge != nil }

// ServingNew returns Serving in the default mode: what sketchd builds
// for a create. Like Serve, it remains only because benchmark/layertrace
// names it; Serving is the constructor.
func (d *Descriptor) ServingNew() func(p Params) (any, error) {
	return func(p Params) (any, error) { return d.Serving(p, false) }
}

// locked is how sketchd serves every family, written once: a plain
// instance and the lock every operation on it takes. A lock around a
// sequential sketch is the baseline of Rinberg et al., "Fast Concurrent
// Data Sketches" — generic by nature — so it is a holder here and not a
// wrapper type per family. Every operation is exclusive, reads
// included, because a read may write: robust.Distinct.Estimate burns a
// copy, a digest compresses before it answers or marshals. The binding
// builders (parsedIngest, batchItemsIngest, query1, merge2) and
// Projection, AppendMarshal and SizeOf take the lock around the typed
// call; an ingest binding parses the batch before it asks for it.
//
// A buffered holder (buf set, hashed families only) is the same holder
// with a concurrent.Buffer in front: its ingest binding hands the parsed
// block to the buffer instead of taking the lock, and the buffer's
// propagator applies each flush half with the family's Kernel under mu.
// Every read is the unbuffered one; AppendMarshal and Projection sync
// the buffer first, and an answer adds its staleness_bound.
type locked struct {
	mu   sync.Mutex
	inst any
	buf  *concurrent.Buffer
}

// Hold puts a plain instance (from New or Decode) behind the locked
// holder, with a buffer in front of the family's Kernel when buffered
// is set and the family has one; the result is safe for concurrent use
// through Bind. A buffered instance owns the propagator goroutine:
// Close it when it is dropped.
func (d *Descriptor) Hold(plain any, buffered bool) any {
	l := &locked{inst: plain}
	if kernel := d.Kernel; buffered && kernel != nil {
		l.buf = concurrent.NewBuffer(concurrent.DefaultWriterBuffer, func(a, b []uint64) {
			l.mu.Lock()
			defer l.mu.Unlock()
			kernel(l.inst, a, b)
		})
	}
	return l
}

// Close stops a buffered holder's propagator; for any other it is a
// no-op.
func (l *locked) Close() {
	if l.buf != nil {
		l.buf.Close()
	}
}

// held unwraps an instance: the plain instance and its holder, or the
// instance itself and nil when it is bare.
func held(inst any) (any, *locked) {
	if l, ok := inst.(*locked); ok {
		return l.inst, l
	}
	return inst, nil
}

// buffer is the holder's buffer, nil for an unbuffered or bare one.
func (l *locked) buffer() *concurrent.Buffer {
	if l == nil {
		return nil
	}
	return l.buf
}

// sync applies everything a buffered holder's writers have put; a read
// that must see the whole ingest calls it before it takes the lock,
// which the propagator takes too.
func (l *locked) sync() {
	if b := l.buffer(); b != nil {
		b.Sync()
	}
}

// lock and unlock are no-ops on the nil holder of a bare instance.
func (l *locked) lock() {
	if l != nil {
		l.mu.Lock()
	}
}

func (l *locked) unlock() {
	if l != nil {
		l.mu.Unlock()
	}
}

// Serving constructs a self-synchronised instance of any servable
// family, which Bind drives like every other: New's plain instance
// behind the locked holder, buffered when buffered is set and the
// family has a Kernel (hll, countmin, blockedbloom).
func (d *Descriptor) Serving(p Params, buffered bool) (any, error) {
	inst, err := d.New(p)
	if err != nil {
		return nil, err
	}
	return d.Hold(inst, buffered), nil
}

// Servable reports whether sketchd can host the type: it needs both a
// streaming ingest format and a query operation.
func (d *Descriptor) Servable() bool { return d.Bind.Ingest != nil && d.Bind.Query != nil }

// HasParam reports whether the schema defines the named parameter.
func (d *Descriptor) HasParam(name string) bool { return d.param(name) != nil }

func (d *Descriptor) param(name string) *Param {
	for i := range d.Params {
		if d.Params[i].Name == name {
			return &d.Params[i]
		}
	}
	return nil
}

// Validate folds raw parameter values over the schema: absent
// parameters take their defaults, explicit ones are bounds- and
// integrality-checked, unknown names are rejected. This is the single
// parameter-validation point for the server, the facade, and the CLI.
func (d *Descriptor) Validate(seed uint64, raw map[string]float64) (Params, error) {
	vals := make(map[string]float64, len(d.Params))
	for _, p := range d.Params {
		vals[p.Name] = p.Def
	}
	for name, v := range raw {
		p := d.param(name)
		if p == nil {
			return Params{}, fmt.Errorf("%w: %s has no parameter %q", ErrParams, d.Name, name)
		}
		if !p.Float && v != math.Trunc(v) {
			return Params{}, fmt.Errorf("%w: %s %s=%v must be an integer", ErrParams, d.Name, p.Name, v)
		}
		if math.IsNaN(v) || v < p.Min || v > p.Max {
			return Params{}, fmt.Errorf("%w: %s %s=%v out of [%v,%v]",
				ErrParams, d.Name, p.Name, v, p.Min, p.Max)
		}
		vals[name] = v
	}
	return Params{Seed: seed, vals: vals}, nil
}

var (
	byTag    = map[byte]*Descriptor{}
	byName   = map[string]*Descriptor{}
	reserved = map[byte]string{}
)

// register installs a descriptor at package init. Duplicate tags or
// names are programming errors and panic immediately.
func register(d Descriptor) {
	if d.Tag == 0 || d.Tag > core.TagMax {
		panic(fmt.Sprintf("registry: %s tag %d outside [1,%d]", d.Name, d.Tag, core.TagMax))
	}
	if _, ok := byTag[d.Tag]; ok {
		panic(fmt.Sprintf("registry: duplicate tag %d (%s)", d.Tag, d.Name))
	}
	if _, ok := reserved[d.Tag]; ok {
		panic(fmt.Sprintf("registry: tag %d (%s) is reserved", d.Tag, d.Name))
	}
	if _, ok := byName[d.Name]; ok {
		panic(fmt.Sprintf("registry: duplicate name %q", d.Name))
	}
	if d.New == nil || d.Decode == nil {
		panic(fmt.Sprintf("registry: %s needs New and Decode", d.Name))
	}
	dp := new(Descriptor)
	*dp = d
	dp.Serve = &dp.Bind
	byTag[d.Tag] = dp
	byName[d.Name] = dp
}

// reserve tombstones a wire tag that must never be reassigned but has
// no live decoder (e.g. a format superseded in place). The
// exhaustiveness test accepts reserved tags; Decode reports why the
// payload is undecodable.
func reserve(tag byte, reason string) {
	if _, ok := byTag[tag]; ok {
		panic(fmt.Sprintf("registry: reserving registered tag %d", tag))
	}
	reserved[tag] = reason
}

// Lookup returns the descriptor registered under the canonical name.
func Lookup(name string) (*Descriptor, bool) {
	d, ok := byName[name]
	return d, ok
}

// All returns every registered descriptor sorted by name.
func All() []*Descriptor {
	out := make([]*Descriptor, 0, len(byName))
	for _, d := range byName {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Decode deserializes any GSK1 envelope by reading its tag and
// dispatching to the registered decoder — the generic, self-describing
// decode path. It returns the concrete instance (e.g. *cardinality.HLL)
// together with its descriptor.
func Decode(data []byte) (any, *Descriptor, error) {
	d, err := descriptorOf(data)
	if err != nil {
		return nil, nil, err
	}
	inst, err := d.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	return inst, d, nil
}

// descriptorOf reads an envelope's tag and returns the family it names.
func descriptorOf(data []byte) (*Descriptor, error) {
	tag, err := core.PeekTag(data)
	if err != nil {
		return nil, err
	}
	d, ok := byTag[tag]
	if !ok {
		if why, isReserved := reserved[tag]; isReserved {
			return nil, fmt.Errorf("%w: tag %d is retired (%s)", core.ErrCorrupt, tag, why)
		}
		return nil, fmt.Errorf("%w: unknown sketch tag %d", core.ErrCorrupt, tag)
	}
	return d, nil
}

// Marshal serializes any registry-constructed instance in its full
// envelope.
func Marshal(inst any) ([]byte, error) {
	data, _, err := AppendMarshal(nil, inst, false)
	return data, err
}

// BinaryAppender is Go 1.24's encoding.BinaryAppender, declared here
// because go.mod names an older release: the table families and their
// serving holders marshal into a buffer the caller owns, and their
// MarshalBinary is AppendBinary(nil).
type BinaryAppender interface {
	AppendBinary(dst []byte) ([]byte, error)
}

// SlimMarshaler is the optional wire-efficiency interface: families
// whose full state splits into a resident part and a much smaller
// query-sufficient part (the SF-sketch's fat and slim stages) also
// serialize a slim envelope — same GSK1 tag, decodable by the same
// registry decoder, mergeable with other slim envelopes — carrying
// only the bytes a remote reader needs. Byte-exact paths (durability,
// replication) always use MarshalBinary; wire paths that trade state
// for bytes (?wire=slim snapshots, scatter-gather) ask for this.
// MarshalSlim is AppendSlim(nil).
type SlimMarshaler interface {
	MarshalSlim() ([]byte, error)
	AppendSlim(dst []byte) ([]byte, error)
}

// MarshalWire serializes an instance for the wire into a buffer of its
// own: AppendMarshal(nil, inst, slim).
func MarshalWire(inst any, slim bool) ([]byte, bool, error) {
	return AppendMarshal(nil, inst, slim)
}

// AppendMarshal appends an instance's envelope to dst: the slim one
// when slim is requested and the instance has one, the full
// MarshalBinary envelope otherwise. The second result reports whether
// the slim form was actually used, so callers can count slim vs full
// wire bytes per family. A BinaryAppender writes straight into dst; any
// other family's MarshalBinary result is copied in. An instance with
// neither is ErrNoWire.
func AppendMarshal(dst []byte, inst any, slim bool) ([]byte, bool, error) {
	inst, l := held(inst)
	l.sync()
	l.lock()
	defer l.unlock()
	if slim {
		if sm, ok := inst.(SlimMarshaler); ok {
			out, err := sm.AppendSlim(dst)
			return out, err == nil, err
		}
	}
	out, err := appendFull(dst, inst)
	return out, false, err
}

// appendFull appends a plain instance's full envelope to dst.
func appendFull(dst []byte, inst any) ([]byte, error) {
	if a, ok := inst.(BinaryAppender); ok {
		return a.AppendBinary(dst)
	}
	m, ok := inst.(encoding.BinaryMarshaler)
	if !ok {
		return dst, fmt.Errorf("%w: %T", ErrNoWire, inst)
	}
	data, err := m.MarshalBinary()
	if err != nil {
		return dst, err
	}
	if dst == nil {
		return data, nil
	}
	return append(dst, data...), nil
}

// streamer is a family whose envelope is written to a core.Sink as it
// is encoded: StreamBinary writes what AppendBinary appends, its tables
// handed over as the words they are.
type streamer interface {
	StreamBinary(s core.Sink) error
}

// StreamMarshal writes an instance's full envelope, the bytes Marshal
// returns, to s, under the holder's sync and lock: s.Begin is told the
// exact length before s.Write sees the first byte. A streamer's tables
// reach s as its own words, so no copy of the envelope is made; any
// other family's envelope is appended into the buffer s lends, or is
// its MarshalBinary result, and written whole. An instance with no
// envelope is ErrNoWire.
func StreamMarshal(s core.Sink, inst any) error {
	inst, l := held(inst)
	l.sync()
	l.lock()
	defer l.unlock()
	if st, ok := inst.(streamer); ok {
		return st.StreamBinary(s)
	}
	var dst []byte
	if _, ok := inst.(BinaryAppender); ok {
		dst = s.Lend()
	}
	data, err := appendFull(dst, inst)
	if err != nil {
		return err
	}
	if err := s.Begin(len(data)); err != nil {
		return err
	}
	return s.Write(data)
}

// SizeOf reports an instance's in-memory footprint: its own SizeBytes
// accounting when present, otherwise the serialized length as a floor.
func SizeOf(inst any) int {
	inst, l := held(inst)
	l.lock()
	defer l.unlock()
	if s, ok := inst.(interface{ SizeBytes() int }); ok {
		return s.SizeBytes()
	}
	if b, err := Marshal(inst); err == nil {
		return len(b)
	}
	return 0
}

// cast narrows a stored instance to its concrete type, reaching through
// the locked holder, which it returns for the caller to lock around the
// typed call (nil, a no-op, for any other instance); failure means a
// descriptor wired closures over the wrong type, which is reported
// rather than panicking so a server keeps serving.
func cast[T any](inst any) (T, *locked, error) {
	inst, l := held(inst)
	c, ok := inst.(T)
	if !ok {
		var zero T
		return zero, nil, fmt.Errorf("registry: instance is %T, want %T", inst, zero)
	}
	return c, l, nil
}

// decode1 builds a Decode closure from a type's zero-value
// UnmarshalBinary contract.
func decode1[T any, PT interface {
	*T
	encoding.BinaryUnmarshaler
}]() func([]byte) (any, error) {
	return func(data []byte) (any, error) {
		inst := PT(new(T))
		if err := inst.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return inst, nil
	}
}

// merge2 builds the Merge closure of a family whose every instance
// absorbs a decoded plain peer S with a Merge(S) error method, e.g.
// merge2[*cardinality.HLL](). It locks the destination; the source is a
// decoded peer nobody else holds.
func merge2[S any]() func(dst, src any) error {
	return func(dst, src any) error {
		d, l, err := cast[interface{ Merge(S) error }](dst)
		if err != nil {
			return err
		}
		s, _, err := cast[S](src)
		if err != nil {
			return err
		}
		l.lock()
		defer l.unlock()
		return d.Merge(s)
	}
}

// query1 builds a Query closure from a typed query function. A buffered
// instance, whose reads may miss at most StalenessBound() items still
// in writer buffers, carries that bound in every answer as
// staleness_bound.
func query1[T any](fn func(T, url.Values) (map[string]any, error)) func(any, url.Values) (map[string]any, error) {
	return func(inst any, params url.Values) (map[string]any, error) {
		c, l, err := cast[T](inst)
		if err != nil {
			return nil, err
		}
		l.lock()
		defer l.unlock()
		m, err := fn(c, params)
		if b := l.buffer(); b != nil && err == nil {
			m["staleness_bound"] = b.StalenessBound()
		}
		return m, err
	}
}
