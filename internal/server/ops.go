package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// Meaning is what an operation means to a cluster: how a coordinator
// answers it out of what its shards hold. Because a coordinator only
// ever composes mergeable summaries, the meaning is one word, not a
// handler.
type Meaning string

const (
	RouteToOne      Meaning = "route-to-one"     // the request goes whole to one shard, taken in rotation
	Broadcast       Meaning = "broadcast"        // the request goes to every shard unchanged
	GatherMerge     Meaning = "gather-and-merge" // every shard's summary, merged, then answered
	Local           Meaning = "local"            // answered by whichever process is asked
	ShardLocal      Meaning = "shard-local"      // no cluster-wide meaning: a coordinator answers 501
	ServerOnly      Meaning = "sketchd only"     // not mounted on a coordinator
	CoordinatorOnly Meaning = "coordinator only" // not mounted on a sketchd
)

// Op is one operation of the HTTP API: the row the server's mux, the
// coordinator's mux, the client's URLs and the documented route table
// are all read from.
type Op struct {
	Name    string
	Method  string
	Pattern string // net/http pattern path under the default tenant
	Tenant  bool   // also mounted under /v1/t/{tenant}
	Cluster Meaning
	Doc     string
}

// Ops is the operation table; README.md renders it (TestRouteTableDocs
// fails when the two disagree). A tenant twin is the same route under
// /v1/t/{tenant}; the X-Sketch-Tenant header scopes the plain route the
// same way, and with neither a request addresses the "default" tenant.
var Ops = []Op{
	{"create", "POST", "/v1/sketch/{name}", true, Broadcast, "create from a JSON CreateRequest"},
	{"add", "POST", "/v1/sketch/{name}/add", true, RouteToOne, "ingest newline-delimited items"},
	{"query", "GET", "/v1/sketch/{name}/query", true, GatherMerge, "the family's read: estimate, point query, quantile, …"},
	{"merge", "POST", "/v1/sketch/{name}/merge", true, RouteToOne, "absorb a peer envelope, or a GSKB bundle of them"},
	{"snapshot", "GET", "/v1/sketch/{name}/snapshot", true, GatherMerge, "serialize out (`?wire=slim`, `?for=<query>`)"},
	{"delete", "DELETE", "/v1/sketch/{name}", true, Broadcast, "drop the sketch"},
	{"list", "GET", "/v1/sketch", true, ShardLocal, "page through names (`?prefix=`, `?limit=`, `?cursor=`)"},
	{"groupby", "POST", "/v1/ingest/groupby", true, ShardLocal, "fan `group<TAB>item` lines into a sketch per group, one WAL record"},
	{"overlap", "GET", "/v1/overlap", true, ShardLocal, "audience overlap of two cardinality sketches (`?sketches=a,b`)"},
	{"types", "GET", "/v1/types", false, Local, "servable families and their parameter schemas"},
	{"status", "GET", "/v1/status", false, Local, "the answering process's counters and gauges"},
	{"cluster-status", "GET", "/v1/cluster/status", false, CoordinatorOnly, "every shard's status and the coordinator's own counters"},
	{"repl-status", "GET", "/v1/repl/status", false, ServerOnly, "shippable WAL manifest; `?applied=N` reports follower progress"},
	{"repl-file", "GET", "/v1/repl/file/{name}", false, ServerOnly, "one sealed WAL segment or snapshot file"},
	{"repl-seal", "POST", "/v1/repl/seal", false, ServerOnly, "rotate the active WAL segment so it can ship"},
	{"statsz", "GET", "/debug/statsz", false, ServerOnly, "operation counters and per-sketch bytes"},
}

// Named returns the table's row for an operation; a name the table
// does not hold is a bug in the caller.
func Named(name string) Op {
	for _, op := range Ops {
		if op.Name == name {
			return op
		}
	}
	panic("server: no operation " + strconv.Quote(name))
}

// AppendPath appends Path(tenant, name) to dst: the form the client
// writes a request line with, no string built on the way.
func (op Op) AppendPath(dst []byte, tenant, name string) []byte {
	rest := op.Pattern
	if op.Tenant && tenant != "" && tenant != DefaultTenant {
		dst = appendSegment(append(dst, "/v1/t/"...), tenant)
		rest = rest[len("/v1"):]
	}
	head, tail, named := strings.Cut(rest, "{name}")
	dst = append(dst, head...)
	if named {
		dst = append(appendSegment(dst, name), tail...)
	}
	return dst
}

// appendSegment appends url.PathEscape(s); a segment of letters, digits
// and "-_.~", which is nearly every sketch name, needs no escaping.
func appendSegment(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_' || c == '.' || c == '~') {
			return append(dst, url.PathEscape(s)...)
		}
	}
	return append(dst, s...)
}

// Mount registers on mux every row the tier serves (a sketchd, or a
// coordinator), each with its tenant twin, from handlers keyed by
// operation name. A coordinator's shard-local rows need no handler:
// their 501 is read off the row. A served row without a handler, and a
// handler without a served row, panic — no route exists outside Ops.
func Mount(mux *http.ServeMux, coordinator bool, handlers map[string]http.HandlerFunc) {
	mounted := 0
	for _, op := range Ops {
		if op.Cluster == CoordinatorOnly && !coordinator || op.Cluster == ServerOnly && coordinator {
			continue
		}
		h := handlers[op.Name]
		if h != nil {
			mounted++
		} else if coordinator && op.Cluster == ShardLocal {
			h = func(w http.ResponseWriter, _ *http.Request) {
				HTTPError(w, http.StatusNotImplemented, "%s is shard-local: the coordinator does not forward it, ask a shard", op.Name)
			}
		} else {
			panic("server: no handler for operation " + op.Name)
		}
		mux.HandleFunc(op.Method+" "+op.Pattern, h)
		if op.Tenant {
			mux.HandleFunc(op.Method+" /v1/t/{tenant}"+op.Pattern[len("/v1"):], h)
		}
	}
	if mounted != len(handlers) {
		panic(fmt.Sprintf("server: %d handlers name no operation this tier serves", len(handlers)-mounted))
	}
}

// TenantOf resolves the request's namespace: the /v1/t/{tenant}/ route
// wins, then the X-Sketch-Tenant header, then the default tenant.
// Every path here is allocation-free.
func TenantOf(r *http.Request) string {
	if t := r.PathValue("tenant"); t != "" {
		return t
	}
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// WriteJSON sends v as the JSON reply every route but /snapshot gives.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteAdded sends the ack of an /add that applied n items,
// {"added":n} and a newline: the bytes WriteJSON(w, 200,
// map[string]any{"added": n}) sends, appended rather than encoded. Both
// tiers answer an /add with it, and client.AddBatchCounted reads it back
// without encoding/json.
func WriteAdded(w http.ResponseWriter, n int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var buf [32]byte
	ack := strconv.AppendInt(append(buf[:0], `{"added":`...), int64(n), 10)
	w.Write(append(ack, '}', '\n'))
}

// HTTPError sends a refusal in the one error shape: {"error": "..."}.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// MaxBodyBytes bounds any request body; a batch or envelope larger
// than this is rejected with 413 before it can balloon memory.
const MaxBodyBytes = 8 << 20

// ReadBody appends the request body to buf, reusing its capacity. When
// the body cannot be read it answers the request itself — 413 over
// MaxBodyBytes, 400 otherwise — and reports false.
func ReadBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	buf, err := ReadAppend(http.MaxBytesReader(w, r.Body, MaxBodyBytes), buf)
	if err == nil {
		return buf, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		HTTPError(w, http.StatusRequestEntityTooLarge, "body over %d bytes", MaxBodyBytes)
	} else {
		HTTPError(w, http.StatusBadRequest, "reading body: %v", err)
	}
	return buf, false
}

// ReadAppend drains r into dst, reusing dst's capacity and growing it
// only when the payload outgrows it. io.ReadAll allocates a fresh
// buffer per call; this is the reusable-buffer variant request bodies
// and the pooled gather path need — steady state is 0 allocs once the
// buffer has grown to the payload size.
func ReadAppend(r io.Reader, dst []byte) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// BodyPool reads request bodies into buffers it recycles; sketchd and
// the coordinator each hold one. The zero value is ready to use.
type BodyPool struct{ pool sync.Pool } // of *[]byte

// Read drains the request body into a pooled buffer, answering the
// request itself when that fails (see ReadBody). release recycles the
// buffer; body must not be retained past it.
func (p *BodyPool) Read(w http.ResponseWriter, r *http.Request) (body []byte, release func(), ok bool) {
	bp, _ := p.pool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
		*bp = make([]byte, 0, 64<<10)
	}
	*bp, ok = ReadBody(w, r, (*bp)[:0])
	if !ok {
		p.pool.Put(bp)
		return nil, nil, false
	}
	return *bp, func() { p.pool.Put(bp) }, true
}

// WireSlim parses a wire=full|slim value, the envelope form a snapshot
// read asks for; "" is full. The error is the caller's mistake (400).
func WireSlim(wire string) (slim bool, err error) {
	switch wire {
	case "", "full":
		return false, nil
	case "slim":
		return true, nil
	}
	return false, fmt.Errorf("bad wire mode %q (want full or slim)", wire)
}

// WriteEnvelope sends a serialized sketch, or any other file of bytes
// the handler holds whole (a shipped WAL segment). The explicit length
// (past 2 KB the server would otherwise chunk the reply) lets the
// reader size its buffer once; env may go back to a pool as soon as
// this returns, the server having copied or sent the bytes by then.
func WriteEnvelope(w http.ResponseWriter, env []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(env)))
	w.WriteHeader(http.StatusOK)
	w.Write(env)
}
