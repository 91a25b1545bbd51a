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
// `any` and cast it to the methods they call, which every instance of
// the family presents — the plain sketch, the plain sketch behind the
// locked holder, and the family's own holders (sharded, atomic,
// buffered) — so one set drives them all; the generic builders below
// keep that cast — and, for an instance behind the locked holder, the
// lock — in exactly one place per capability.
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
	// NewServing, when set, constructs the family's own internally
	// synchronized holder, which Serving builds in place of the locked
	// one: the sharded HLL (one register file per P, nothing shared to
	// serialise) and the atomic blocked Bloom (its load-first OR skips
	// the locked op on bits already set). Every other family leaves it
	// nil and is served behind the locked holder — countmin included:
	// its plain weighted batch kernel under the lock costs less CPU a
	// line than four atomic adds, at 1 to 4 writers (DESIGN.md §5.1).
	NewServing func(p Params) (any, error)
	// NewServingBuffered, when set, constructs a local-buffer/global-
	// propagation holder (pooled writer handles, a propagator goroutine,
	// wait-free relaxed-consistency reads), which Serving builds when
	// asked for a buffered instance: over the sharded HLL's plain
	// kernel, the atomic blocked Bloom, and the atomic Count-Min, whose
	// only served role is that global. Buffered instances own a
	// goroutine — callers must Close them when the entry is deleted.
	NewServingBuffered func(p Params) (any, error)
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
	// any instance variant the family constructs, the cells query needs
	// and fills Shape, N and Cells; it returns (nil, nil) for a query —
	// or an instance — it cannot project. Finish renders the result map
	// Bind.Query would from the merged cells.
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
}

// Mergeable reports whether live instances can absorb decoded peers.
func (d *Descriptor) Mergeable() bool { return d.Bind.Merge != nil }

// ServingNew returns Serving in the default mode: what sketchd builds
// for a create. Like Serve, it remains only because benchmark/layertrace
// names it; Serving is the constructor.
func (d *Descriptor) ServingNew() func(p Params) (any, error) {
	return func(p Params) (any, error) { return d.Serving(p, false) }
}

// locked is the mutex column of the serving matrix, written once: a
// plain instance and the lock every operation on it takes. A lock
// around a sequential sketch is the baseline of Rinberg et al., "Fast
// Concurrent Data Sketches" — generic by nature — so it is a holder
// here and not a wrapper type per family. Every operation is exclusive,
// reads included, because a read may write: robust.Distinct.Estimate
// burns a copy, a digest compresses before it answers or marshals. The
// binding builders (parsedIngest, batchItemsIngest, query1, merge2) and
// Projection, AppendMarshal and SizeOf take the lock around the typed
// call; an ingest binding parses the batch before it asks for it.
type locked struct {
	mu   sync.Mutex
	inst any
}

// Locked puts a plain instance (from New or Decode) behind the holder;
// the result is safe for concurrent use through Bind. It is how a
// recovered envelope is served as the bytes it decoded from.
func Locked(plain any) any { return &locked{inst: plain} }

// held unwraps an instance: the plain instance and its holder, or the
// instance itself and nil when it is bare or synchronises itself.
func held(inst any) (any, *locked) {
	if l, ok := inst.(*locked); ok {
		return l.inst, l
	}
	return inst, nil
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
// family, which Bind drives like every other: the buffered holder when
// buffered is set and the family has one (hll, countmin, blockedbloom),
// otherwise the family's own holder (NewServing: hll, blockedbloom),
// otherwise New's plain instance behind the locked holder.
func (d *Descriptor) Serving(p Params, buffered bool) (any, error) {
	switch {
	case buffered && d.NewServingBuffered != nil:
		return d.NewServingBuffered(p)
	case d.NewServing != nil:
		return d.NewServing(p)
	}
	inst, err := d.New(p)
	if err != nil {
		return nil, err
	}
	return Locked(inst), nil
}

// bufferedOver builds a NewServingBuffered from the constructor of the
// global it buffers (an atomic table, or New where the propagator owns
// a plain sketch), so the parameters are validated and the shape
// resolved by that constructor alone.
func bufferedOver[G, B any](global func(Params) (any, error), buffer func(G, int) B) func(Params) (any, error) {
	return func(p Params) (any, error) {
		inst, err := global(p)
		if err != nil {
			return nil, err
		}
		g, _, err := cast[G](inst)
		if err != nil {
			return nil, err
		}
		return buffer(g, concurrent.DefaultWriterBuffer), nil
	}
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
	l.lock()
	defer l.unlock()
	if slim {
		if sm, ok := inst.(SlimMarshaler); ok {
			out, err := sm.AppendSlim(dst)
			return out, err == nil, err
		}
	}
	if a, ok := inst.(BinaryAppender); ok {
		out, err := a.AppendBinary(dst)
		return out, false, err
	}
	m, ok := inst.(encoding.BinaryMarshaler)
	if !ok {
		return dst, false, fmt.Errorf("%w: %T", ErrNoWire, inst)
	}
	data, err := m.MarshalBinary()
	if err != nil {
		return dst, false, err
	}
	if dst == nil {
		return data, false, nil
	}
	return append(dst, data...), false, nil
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

// query1 builds a Query closure from a typed query function. An
// instance that reports StalenessBound() — a buffered one, whose reads
// are wait-free and may miss at most that many items still in writer
// buffers — carries it in every answer as staleness_bound.
func query1[T any](fn func(T, url.Values) (map[string]any, error)) func(any, url.Values) (map[string]any, error) {
	return func(inst any, params url.Values) (map[string]any, error) {
		c, l, err := cast[T](inst)
		if err != nil {
			return nil, err
		}
		l.lock()
		defer l.unlock()
		m, err := fn(c, params)
		if b, ok := inst.(interface{ StalenessBound() int }); ok && err == nil {
			m["staleness_bound"] = b.StalenessBound()
		}
		return m, err
	}
}
