package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	typereg "repro/internal/registry"
)

// ErrBadParams is returned by NewEntry for unusable creation
// parameters (unknown type, out-of-range shape).
var ErrBadParams = errors.New("server: bad sketch parameters")

// ErrUnsupported marks an operation the sketch type's descriptor does
// not bind — merging a non-mergeable family, for instance. The HTTP
// layer maps it to 405 Method Not Allowed, distinct from malformed
// requests (400) and incompatible-but-well-formed merges (409).
var ErrUnsupported = errors.New("server: operation not supported by sketch type")

// CreateRequest is the JSON body of POST /v1/sketch/{name}. Any
// servable registry type can be created — GET /v1/types lists them
// with their parameter schemas. The typed fields cover the common
// parameters; Params passes any schema parameter by name and wins on
// overlap. Zero values mean "use the descriptor default" throughout.
type CreateRequest struct {
	Type   string  `json:"type"`            // registry name: hll, countmin, kll, theta, minhash, …
	Seed   uint64  `json:"seed,omitempty"`  // hash seed (default 1)
	P      uint8   `json:"p,omitempty"`     // hll/hllpp/loglog precision
	Width  int     `json:"width,omitempty"` // countmin/countsketch row width
	Depth  int     `json:"depth,omitempty"` // countmin/countsketch rows
	M      uint64  `json:"m,omitempty"`     // bloom bits / countingbloom counters / fm bitmaps
	K      int     `json:"k,omitempty"`     // capacity-style parameter (bloom, kll, theta, kmv, …)
	NItems uint64  `json:"n,omitempty"`     // bloom expected items
	FPR    float64 `json:"fpr,omitempty"`   // bloom target false-positive rate

	// Params addresses the full descriptor schema by parameter name
	// (e.g. {"eps": 0.02} for gk, {"vertices": 512} for graphsketch).
	// Unknown names are rejected.
	Params map[string]float64 `json:"params,omitempty"`

	// TTLSeconds, when > 0, schedules the sketch for eviction that many
	// seconds after creation. The server stamps CreatedUnix before the
	// create is WAL-logged, so replay reconstructs the same deadline and
	// the reaper's WAL-logged delete keeps eviction exact across crash
	// recovery. A client-supplied CreatedUnix is honored (clock skew is
	// the caller's problem); 0 means "now" at the serving node.
	TTLSeconds  int64 `json:"ttl_s,omitempty"`
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// expiryUnix returns the eviction deadline in unix seconds (0 = never).
func (req CreateRequest) expiryUnix() int64 {
	if req.TTLSeconds <= 0 {
		return 0
	}
	return req.CreatedUnix + req.TTLSeconds
}

// rawParams folds the typed convenience fields into a schema-keyed
// parameter map. A typed field only contributes when it is nonzero AND
// the descriptor's schema has a parameter of that name, so unrelated
// leftovers in a request (say a bloom "fpr" on a kll create) don't
// reject it — that matches the old per-type switch, which ignored
// fields the type didn't use. Explicit Params entries always pass
// through and get the strict treatment.
func (req CreateRequest) rawParams(d *typereg.Descriptor) map[string]float64 {
	raw := make(map[string]float64, len(req.Params)+4)
	put := func(name string, v float64) {
		if v != 0 && d.HasParam(name) {
			raw[name] = v
		}
	}
	put("p", float64(req.P))
	put("width", float64(req.Width))
	put("depth", float64(req.Depth))
	put("m", float64(req.M))
	put("k", float64(req.K))
	put("n", float64(req.NItems))
	put("fpr", req.FPR)
	for name, v := range req.Params {
		raw[name] = v
	}
	return raw
}

// Entry is one named sketch behind the server namespace: a registry
// descriptor plus a live instance driven entirely through the
// descriptor's capability bindings — there is no per-type code from
// here up through the HTTP handlers. Entries are safe for concurrent
// use because every instance they hold is the plain sketch behind the
// registry's locked holder (registry.Descriptor.Serving), whose bindings
// take the lock around the update or the read and parse a batch before
// asking for it — with a buffer in front of the lock when the server is
// buffered and the family has one (hll, countmin, blockedbloom). Ingest
// must not retain the body, a pooled request buffer.
//
// Every state an entry serializes is named by an entity tag (appendTag):
// the process's nonce, the entry's id and its version, which Add, Merge
// and Query move on once they return — Query too, because a read
// advances robustdistinct's switching state, which its envelope holds.
type Entry struct {
	desc    *typereg.Descriptor
	inst    any
	req     CreateRequest // creation parameters, persisted by the durability layer
	id      uint64        // unique in the process: a re-created or restored sketch is another entry
	version atomic.Uint64 // mutations and reads returned so far
}

// entryIDs numbers the entries of the process.
var entryIDs atomic.Uint64

// tagNonce is the process's part of every entity tag, so that a
// restarted server, whose ids and versions count from zero again, never
// names a state by a tag its previous process gave another.
var tagNonce = rand.Uint64()

func makeEntry(d *typereg.Descriptor, inst any, req CreateRequest) *Entry {
	return &Entry{desc: d, inst: inst, req: req, id: entryIDs.Add(1)}
}

// NewEntry builds a server entry in the default serving mode.
func NewEntry(req CreateRequest) (*Entry, error) { return newEntry(req, false) }

// newEntry builds a server entry from creation parameters, in the
// serving mode buffered selects, resolving the type through the registry
// so defaults, bounds, and construction live in exactly one place.
func newEntry(req CreateRequest, buffered bool) (*Entry, error) {
	d, ok := typereg.Lookup(req.Type)
	if !ok {
		return nil, fmt.Errorf("%w: unknown sketch type %q", ErrBadParams, req.Type)
	}
	if !d.Servable() {
		return nil, fmt.Errorf("%w: type %q has no streaming ingest", ErrBadParams, req.Type)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	p, err := d.Validate(seed, req.rawParams(d))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	inst, err := d.Serving(p, buffered)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	return makeEntry(d, inst, req), nil
}

// RestoreEntry rebuilds a live entry from its creation parameters and
// a recovered MarshalBinary envelope: the decoded instance itself,
// behind the holder of the mode buffered selects, as a create would
// build it. It verifies byte-identity: the restored entry must
// serialize back to exactly the recovered bytes, or restoration fails
// (the durability layer then skips the sketch rather than serving
// silently divergent state).
func RestoreEntry(req CreateRequest, data []byte, buffered bool) (*Entry, error) {
	d, ok := typereg.Lookup(req.Type)
	if !ok {
		return nil, fmt.Errorf("%w: unknown sketch type %q", ErrBadParams, req.Type)
	}
	inst, sdesc, err := typereg.Decode(data)
	if err != nil {
		return nil, err
	}
	if sdesc.Tag != d.Tag {
		return nil, fmt.Errorf("%w: snapshot holds %s bytes for a %s entry",
			core.ErrIncompatible, sdesc.Name, d.Name)
	}
	e := makeEntry(d, d.Hold(inst, buffered), req)
	b, err := e.Snapshot()
	if err == nil && !bytes.Equal(b, data) {
		err = fmt.Errorf("server: %s restore is not byte-identical (recovered %d bytes, reserialized %d)",
			d.Name, len(data), len(b))
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// Close releases entry-held resources — a buffered sketch's propagator
// goroutine; for any other instance it is a no-op. Call exactly when
// the entry leaves the namespace (delete, replaced on replay); the
// entry must not be used afterwards.
func (e *Entry) Close() {
	if c, ok := e.inst.(interface{ Close() }); ok {
		c.Close()
	}
}

// Type returns the registry type name ("hll", "countmin", …).
func (e *Entry) Type() string { return e.desc.Name }

// CreateReq returns the creation parameters the entry was built from.
func (e *Entry) CreateReq() CreateRequest { return e.req }

// Mergeable reports whether the entry accepts peer envelopes.
func (e *Entry) Mergeable() bool { return e.desc.Mergeable() }

// Ingest folds an ingest body — newline-delimited items — in and
// returns how many items it held.
func (e *Entry) Ingest(body []byte) (int, error) {
	n, err := e.desc.Bind.Ingest(e.inst, body)
	e.version.Add(1)
	return n, err
}

// Add folds a batch of items in, through Ingest
// (registry.IngestLines).
func (e *Entry) Add(items [][]byte) error { return typereg.IngestLines(items, e.Ingest) }

// Query answers the type's read operation from URL parameters.
func (e *Entry) Query(params url.Values) (map[string]any, error) {
	res, err := e.desc.Bind.Query(e.inst, params)
	e.version.Add(1)
	return res, err
}

// Merge absorbs a peer's MarshalBinary envelope. The payload is
// self-describing: it decodes through the registry, a cross-type
// envelope is an incompatibility (409 at the HTTP layer), and a
// non-mergeable family reports ErrUnsupported (405).
func (e *Entry) Merge(data []byte) error {
	if !e.Mergeable() {
		return fmt.Errorf("%w: %s does not merge", ErrUnsupported, e.desc.Name)
	}
	src, sdesc, err := typereg.Decode(data)
	if err != nil {
		return err
	}
	if sdesc.Tag != e.desc.Tag {
		return fmt.Errorf("%w: cannot merge a %s payload into %s", core.ErrIncompatible, sdesc.Name, e.desc.Name)
	}
	err = e.desc.Bind.Merge(e.inst, src)
	e.version.Add(1)
	return err
}

// appendTag appends the strong entity tag of the entry's current state,
// "nonce-id-version" in hex between quotes. Read it before the state is
// serialized: a mutation racing the read may be in the bytes or not,
// but once it has returned the version has moved on, so no tag keeps
// naming bytes that lack it.
func (e *Entry) appendTag(dst []byte) []byte {
	dst = strconv.AppendUint(append(dst, '"'), tagNonce, 16)
	dst = strconv.AppendUint(append(dst, '-'), e.id, 16)
	dst = strconv.AppendUint(append(dst, '-'), e.version.Load(), 16)
	return append(dst, '"')
}

// Snapshot serializes the current state in the standard envelope, in a
// buffer of its own: what durability and replication keep.
func (e *Entry) Snapshot() ([]byte, error) {
	b, _, err := e.SnapshotWire(nil, false)
	return b, err
}

// SnapshotWire appends the current state to dst, which the caller owns,
// as it goes on the wire: the slim envelope when requested and the
// family implements registry.SlimMarshaler, the full envelope otherwise
// (so ?wire=slim stays a no-op hint for families without a slim form).
// The second result reports which form was served.
func (e *Entry) SnapshotWire(dst []byte, slim bool) ([]byte, bool, error) {
	out, slimmed, err := typereg.AppendMarshal(dst, e.inst, slim)
	return out, slimmed, e.wireErr(err)
}

// StreamSnapshot writes the current state in the standard envelope to
// s as it is encoded: the bytes Snapshot returns, which no buffer holds.
func (e *Entry) StreamSnapshot(s core.Sink) error {
	return e.wireErr(typereg.StreamMarshal(s, e.inst))
}

// wireErr reports a family without an envelope as ErrUnsupported.
func (e *Entry) wireErr(err error) error {
	if errors.Is(err, typereg.ErrNoWire) {
		return fmt.Errorf("%w: %s does not serialize", ErrUnsupported, e.desc.Name)
	}
	return err
}

// Project serializes the projection of the current state for query —
// the cells that query reads, registry.Projection — or returns nil data
// when the family does not project that query and the caller should
// ship a full envelope instead.
func (e *Entry) Project(query url.Values) ([]byte, error) {
	p, err := e.desc.Projection(e.inst, query)
	if p == nil || err != nil {
		return nil, err
	}
	return p.MarshalBinary()
}

// SizeBytes reports the in-memory sketch footprint.
func (e *Entry) SizeBytes() int { return typereg.SizeOf(e.inst) }
