// Package client is the Go client for sketchd (internal/server): it
// batches newline-delimited ingest, exchanges merge envelopes, and
// decodes query and stats responses, over keep-alive connections of its
// own (link.go). cmd/sketchbench's E25 loadgen uses it to measure
// ingest throughput scaling; cmd/sketchcli-style tools can reuse it
// as-is.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
)

// Client talks to one sketchd base URL. The zero value is not usable;
// create with New. Safe for concurrent use: each call takes a
// connection of its own from the client's pool, writes and reads on the
// calling goroutine, and hands the connection back.
//
// A client is optionally scoped to a tenant namespace via Tenant; an
// unscoped client uses the legacy /v1/sketch paths, which the server
// maps to the "default" tenant, so existing callers are unchanged.
type Client struct {
	tenant string // "" = legacy paths (default namespace)
	link   *link
}

// New creates a client for a base URL like "http://127.0.0.1:7600".
// Every call runs under a dial, a first-response-byte and an overall
// deadline, so one against a dead or wedged server fails instead of
// hanging forever. A base that is not an http:// URL is reported by the
// first call.
func New(base string) *Client {
	return &Client{link: newLink(base)}
}

// Tenant returns a copy of the client scoped to a tenant namespace:
// every sketch call goes through /v1/t/{tenant}/... instead of the
// legacy paths. Tenant("") (and Tenant("default"), which the server
// treats identically) returns the receiver unchanged — the legacy
// paths already address the default namespace. The copy shares the
// receiver's connections.
func (c *Client) Tenant(tenant string) *Client {
	if tenant == "" || tenant == "default" {
		return c
	}
	scoped := *c
	scoped.tenant = tenant
	return &scoped
}

// Create registers a named sketch.
func (c *Client) Create(name string, req server.CreateRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.Forward("create", name, "application/json", body)
}

// Add ingests a batch of string items in one request.
func (c *Client) Add(name string, items []string) error {
	return c.AddBatch(name, []byte(strings.Join(items, "\n")))
}

// AddBatch ingests a pre-joined newline-delimited batch. Loadgen hot
// paths use this form to reuse one buffer across requests.
func (c *Client) AddBatch(name string, batch []byte) error {
	return c.Forward("add", name, "text/plain", batch)
}

// AddBatchCounted is AddBatch that returns the server's own count of the
// items it applied: what a coordinator relays as its ack without ever
// looking inside the batch.
func (c *Client) AddBatchCounted(name string, batch []byte) (int, error) {
	var added int
	_, _, err := c.roundTrip(request{op: server.Named("add"), name: name, contentType: "text/plain", added: &added}, batch, nil, true)
	return added, err
}

// readAdded reads the count of an /add ack. The ack both tiers write
// (server.WriteAdded) is read as bytes; any other body goes through
// encoding/json, which then has the last word.
func readAdded(ack []byte) (int, error) {
	if digits, ok := bytes.CutPrefix(ack, []byte(`{"added":`)); ok {
		n, i := 0, 0
		for ; i < len(digits) && i < 18 && '0' <= digits[i] && digits[i] <= '9'; i++ {
			n = n*10 + int(digits[i]-'0')
		}
		// One to 18 digits, no leading zero, and the object's end: what
		// WriteAdded writes, and what encoding/json reads the same.
		if end := digits[i:]; i > 0 && (i == 1 || digits[0] != '0') && (string(end) == "}\n" || string(end) == "}") {
			return n, nil
		}
	}
	var doc struct {
		Added int `json:"added"`
	}
	err := json.Unmarshal(ack, &doc)
	return doc.Added, err
}

// Query runs the sketch's read operation and returns the decoded JSON
// document.
func (c *Client) Query(name string, params url.Values) (map[string]any, error) {
	var out map[string]any
	if err := c.do("query", name, params, "", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Estimate returns the "estimate" field of a query — the natural read
// for hll, countmin and theta sketches.
func (c *Client) Estimate(name string, params url.Values) (float64, error) {
	res, err := c.Query(name, params)
	if err != nil {
		return 0, err
	}
	est, ok := res["estimate"].(float64)
	if !ok {
		return 0, fmt.Errorf("client: no estimate in query response %v", res)
	}
	return est, nil
}

// Merge posts a peer's MarshalBinary envelope into the named sketch.
func (c *Client) Merge(name string, envelope []byte) error {
	return c.Forward("merge", name, "application/octet-stream", envelope)
}

// Snapshot fetches the sketch's full serialization envelope.
func (c *Client) Snapshot(name string) ([]byte, error) {
	return c.SnapshotAppend(name, "", nil)
}

// SnapshotWire fetches the envelope in a wire mode: "slim" asks the
// server for the family's slim envelope (registry.SlimMarshaler;
// families without one answer full, so the mode is a safe hint), ""
// or "full" for the complete state.
func (c *Client) SnapshotWire(name, wire string) ([]byte, error) {
	return c.SnapshotAppend(name, wire, nil)
}

// SnapshotAppend fetches the envelope in the given wire mode,
// appending into dst and reusing its capacity — the form the
// coordinator's pooled scatter-gather path uses so a steady-state
// gather stops allocating a fresh envelope buffer per shard per query.
func (c *Client) SnapshotAppend(name, wire string, dst []byte) ([]byte, error) {
	return c.SnapshotFor(name, wire, "", dst)
}

// SnapshotFor is SnapshotAppend for a reader that will ask exactly one
// query of what it fetches: forQuery (an encoded url.Values, "" for
// none) rides along as ?for=, and a server whose family can project
// that query answers with a registry.Projection envelope — the cells
// the query reads — instead of the whole state. Any other server,
// family or query answers as SnapshotAppend would.
func (c *Client) SnapshotFor(name, wire, forQuery string, dst []byte) ([]byte, error) {
	var qbuf [128]byte // on the stack unless the query outgrows it
	_, env, err := c.roundTrip(request{op: server.Named("snapshot"), name: name, query: snapshotQuery(&qbuf, wire, forQuery)}, nil, dst, false)
	return env, err
}

// Cached is an envelope a reader keeps and the entity tag its server
// named it by: what Refresh brings up to date.
type Cached struct {
	Env []byte
	Tag []byte
}

// Refresh brings cached up to date with the named sketch's whole state
// in a wire mode, as SnapshotAppend reads it: cached.Tag, when there is
// one, goes out as If-None-Match, and a server whose state still has
// that tag answers 304 — Refresh then reports false and cached is as it
// was. Any other answer replaces Env and Tag (Tag empty when the server
// sent none) and reports true. On an error both come back empty,
// capacity kept, so the next Refresh asks unconditionally.
func (c *Client) Refresh(name, wire string, cached *Cached) (changed bool, err error) {
	var qbuf [128]byte
	rq := request{op: server.Named("snapshot"), name: name, query: snapshotQuery(&qbuf, wire, ""), tag: &cached.Tag}
	status, env, err := c.roundTrip(rq, nil, cached.Env, false)
	cached.Env = env
	if err != nil {
		cached.Tag = cached.Tag[:0]
	}
	return err == nil && status != 304, err
}

// snapshotQuery writes a snapshot read's query string into buf.
func snapshotQuery(buf *[128]byte, wire, forQuery string) []byte {
	q := buf[:0]
	if wire != "" {
		q = appendQueryEscape(append(q, "wire="...), wire)
	}
	if forQuery != "" {
		if len(q) > 0 {
			q = append(q, '&')
		}
		q = appendQueryEscape(append(q, "for="...), forQuery)
	}
	return q
}

// appendQueryEscape appends url.QueryEscape(s).
func appendQueryEscape(dst []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_' || c == '.' || c == '~':
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, '+')
		default:
			dst = append(dst, '%', hex[c>>4], hex[c&15])
		}
	}
	return dst
}

// Delete drops the named sketch.
func (c *Client) Delete(name string) error {
	return c.Forward("delete", name, "", nil)
}

// GroupByResult is the ack of a group-by ingest call.
type GroupByResult struct {
	Tenant  string `json:"tenant"`
	Groups  int    `json:"groups"`
	Created int    `json:"created"`
	Added   uint64 `json:"added"`
}

// GroupBy posts one group<TAB>item batch to POST /v1/ingest/groupby,
// fanning the batch into a sketch per group under a shared create
// template. params carries the template query parameters (type is
// required; prefix, ttl_s, and the CreateRequest convenience fields
// are optional).
func (c *Client) GroupBy(params url.Values, batch []byte) (GroupByResult, error) {
	var out GroupByResult
	err := c.do("groupby", "", params, "text/plain", batch, &out)
	return out, err
}

// Types fetches the server's sketch type catalog (GET /v1/types):
// every servable family with its parameter schema and ingest format.
func (c *Client) Types() ([]server.TypeInfo, error) {
	var out struct {
		Types []server.TypeInfo `json:"types"`
	}
	if err := c.do("types", "", nil, "", nil, &out); err != nil {
		return nil, err
	}
	return out.Types, nil
}

// Status fetches GET /v1/status: uptime, op counters, and the
// durability gauges (WAL LSN, last snapshot LSN, WAL bytes, fsync
// age; Durability.Enabled is false on an in-memory-only server).
func (c *Client) Status() (server.StatusResponse, error) {
	var out server.StatusResponse
	err := c.do("status", "", nil, "", nil, &out)
	return out, err
}

// Statsz fetches the server's operation counters.
func (c *Client) Statsz() (server.Statsz, error) {
	var out server.Statsz
	err := c.do("statsz", "", nil, "", nil, &out)
	return out, err
}

// ReplStatus polls the leader's replication manifest (sealed WAL
// segments + current snapshot), reporting this follower's applied LSN
// so the leader can surface its replication lag.
func (c *Client) ReplStatus(applied uint64) (durable.ShippableState, error) {
	var out durable.ShippableState
	err := c.do("repl-status", "", url.Values{"applied": {strconv.FormatUint(applied, 10)}}, "", nil, &out)
	return out, err
}

// ReplFile fetches one shippable file (sealed WAL segment or snapshot)
// by its manifest name.
func (c *Client) ReplFile(name string) ([]byte, error) {
	_, data, err := c.roundTrip(request{op: server.Named("repl-file"), name: name}, nil, nil, false)
	return data, err
}

// ReplSeal asks the leader to rotate its active WAL segment so every
// record appended so far becomes shippable — the freshness knob a
// polling follower turns before each sync round.
func (c *Client) ReplSeal() error {
	return c.Forward("repl-seal", "", "application/json", nil)
}

// Forward sends one operation as it stands — the row's method and path,
// the caller's body — and reports a non-2xx answer as a *StatusError.
// It is how a coordinator broadcasts a request to its shards.
func (c *Client) Forward(op, name, contentType string, body []byte) error {
	return c.do(op, name, nil, contentType, body, nil)
}

// do issues one operation and decodes its JSON reply into out (nil: the
// reply is read and dropped).
func (c *Client) do(op, name string, query url.Values, contentType string, body []byte, out any) error {
	rq := request{op: server.Named(op), name: name, contentType: contentType}
	if len(query) > 0 {
		rq.query = []byte(query.Encode())
	}
	_, data, err := c.roundTrip(rq, body, nil, out == nil)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// StatusError is a non-2xx server response, carrying the HTTP status
// so callers can distinguish permanent request errors (4xx) from
// retryable server-side failures (5xx) — the coordinator's ingest
// fan-out retries only the latter — and the parsed Retry-After so a
// budget- or rate-limited caller (429) backs off for the window the
// server named instead of hammering an exhausted bucket.
type StatusError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration // parsed Retry-After header; 0 when absent
}

func (e *StatusError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("client: HTTP %d (retry after %s): %s", e.Code, e.RetryAfter, e.Msg)
	}
	return fmt.Sprintf("client: HTTP %d: %s", e.Code, e.Msg)
}

// statusError turns a refusal into a *StatusError: the message is the
// "error" member of a JSON body, or else the body as text.
func statusError(code int, retryAfter time.Duration, body []byte) error {
	se := &StatusError{Code: code, RetryAfter: retryAfter}
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		se.Msg = doc.Error
	} else {
		se.Msg = string(bytes.TrimSpace(body))
	}
	return se
}
