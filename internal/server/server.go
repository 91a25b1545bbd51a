// Package server implements sketchd, the HTTP serving layer over the
// sketch library: a namespace registry of named sketches with
// endpoints for streaming ingest (newline-delimited batches), point
// and estimate queries, mergeable-summary exchange (the peer posts a
// MarshalBinary envelope, per the Mergeable Summaries model the paper
// builds on), and serialization out. Hot sketch types ride the
// wrappers in internal/concurrent — the sharded HLL and the lock-free
// Count-Min — so ingest throughput scales with client concurrency;
// everything else serializes behind a per-entry mutex with per-batch
// locking.
//
// Routes (Go 1.22 pattern syntax):
//
//	POST   /v1/sketch/{name}           create (JSON CreateRequest body)
//	POST   /v1/sketch/{name}/add       ingest newline-delimited items
//	GET    /v1/sketch/{name}/query     type-specific read (see Entry.Query)
//	POST   /v1/sketch/{name}/merge     absorb a peer MarshalBinary envelope
//	                                   (or a GSKB bundle of same-type
//	                                   envelopes, tree-merged in parallel
//	                                   before absorption — see bundle.go)
//	GET    /v1/sketch/{name}/snapshot  serialize out (octet-stream)
//	DELETE /v1/sketch/{name}           drop the sketch
//	GET    /v1/sketch                  list sketches (?prefix= ?limit= ?cursor=)
//	GET    /v1/types                   servable types + parameter schemas
//	GET    /debug/statsz               operation counters and per-sketch bytes
//
// Every sketch lives in a tenant namespace (tenant.go): the routes
// above address the "default" tenant, and each /v1/sketch... route has
// a tenant-scoped twin under /v1/t/{tenant}/sketch... (equivalently,
// the X-Sketch-Tenant header scopes the legacy URLs). Tenant-only
// surfaces:
//
//	POST /v1/t/{tenant}/ingest/groupby  fan one stream into per-group
//	                                    sketches in one WAL-batched call
//	GET  /v1/t/{tenant}/overlap         audience overlap across two
//	                                    cardinality sketches (adtech)
//
// Every sketch family is described by a registry descriptor
// (internal/registry); the handlers and Entry are fully generic over
// descriptors, so the supported-type set is exactly the registry's
// servable set and capability gaps surface as precise statuses: 405
// for merge on a non-mergeable family, 409 for incompatible merges,
// 400 for malformed input.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	typereg "repro/internal/registry"
)

// maxBodyBytes bounds any request body; a batch or envelope larger
// than this is rejected with 413 before it can balloon memory.
const maxBodyBytes = 8 << 20

// Server is the sketchd HTTP server. Create with New and mount
// Handler on any net/http server.
type Server struct {
	tmu     sync.RWMutex
	tenants map[string]*tenantState
	quota   TenantQuota
	qb      QueryBudget

	// saltSeeds derives per-(tenant,name) seeds for seedless creates
	// (see salt.go). Set before serving; default off keeps seed 1.
	saltSeeds bool

	ops       core.OpCounters
	wire      map[string]*wireCounters // per-family snapshot wire bytes
	start     time.Time
	bufPool   sync.Pool // *[]byte request-body buffers
	itemsPool sync.Pool // *[][]byte split-batch item headers
	envPool   sync.Pool // *[]byte /snapshot response envelopes
	mux       *http.ServeMux

	reaperStop chan struct{}
	reaperWG   sync.WaitGroup

	// dur, when non-nil, logs every mutation to the write-ahead log
	// (see EnableDurability). nil keeps the original in-memory-only
	// behavior and the allocation-free ingest fast path.
	dur *durable.Manager

	// repl tracks replication state: follower polls seen by a leader,
	// or the self-report a follower's replica loop installs.
	repl replState
}

// New creates an empty server.
func New() *Server {
	s := &Server{
		tenants: map[string]*tenantState{DefaultTenant: newTenantState(DefaultTenant)},
		wire:    newWireCounters(),
		start:   time.Now(),
	}
	s.bufPool.New = func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	}
	s.itemsPool.New = func() any {
		items := make([][]byte, 0, 1024)
		return &items
	}
	s.envPool.New = func() any { return new([]byte) }
	s.mux = http.NewServeMux()
	// Legacy (default-tenant) routes and their /v1/t/{tenant}/ twins
	// share handlers; tenantOf picks the namespace per request.
	for _, prefix := range []string{"/v1", "/v1/t/{tenant}"} {
		s.mux.HandleFunc("POST "+prefix+"/sketch/{name}", s.handleCreate)
		s.mux.HandleFunc("POST "+prefix+"/sketch/{name}/add", s.handleAdd)
		s.mux.HandleFunc("GET "+prefix+"/sketch/{name}/query", s.handleQuery)
		s.mux.HandleFunc("POST "+prefix+"/sketch/{name}/merge", s.handleMerge)
		s.mux.HandleFunc("GET "+prefix+"/sketch/{name}/snapshot", s.handleSnapshot)
		s.mux.HandleFunc("DELETE "+prefix+"/sketch/{name}", s.handleDelete)
		s.mux.HandleFunc("GET "+prefix+"/sketch", s.handleList)
		s.mux.HandleFunc("POST "+prefix+"/ingest/groupby", s.handleGroupBy)
		s.mux.HandleFunc("GET "+prefix+"/overlap", s.handleOverlap)
	}
	s.mux.HandleFunc("GET /v1/types", s.handleTypes)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/repl/status", s.handleReplStatus)
	s.mux.HandleFunc("GET /v1/repl/file/{name}", s.handleReplFile)
	s.mux.HandleFunc("POST /v1/repl/seal", s.handleReplSeal)
	s.mux.HandleFunc("GET /debug/statsz", s.handleStatsz)
	return s
}

// Handler returns the route multiplexer.
func (s *Server) Handler() http.Handler { return s.mux }

// Ops exposes the operation counters (read-only use).
func (s *Server) Ops() *core.OpCounters { return &s.ops }

// readBody drains the request body into a pooled buffer. The returned
// release func recycles the buffer; the body slice must not be
// retained past it.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, release func(), ok bool) {
	bp := s.bufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	limited := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := limited.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			s.bufPool.Put(bp)
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpError(w, http.StatusRequestEntityTooLarge, "body over %d bytes", maxBodyBytes)
			} else {
				httpError(w, http.StatusBadRequest, "reading body: %v", err)
			}
			return nil, nil, false
		}
	}
	*bp = buf
	return buf, func() { s.bufPool.Put(bp) }, true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	if !validTenantName(tenant) {
		httpError(w, http.StatusBadRequest, "invalid tenant name %q", tenant)
		return
	}
	name := r.PathValue("name")
	body, release, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer release()
	var req CreateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "create body: %v", err)
		return
	}
	// Stamp derived fields before the request is WAL-logged, so
	// recovery reconstructs the same state: the creation time (TTL
	// deadline) and, under -salt-seeds, the per-(tenant,name) seed.
	stamp := s.applySaltSeed(tenant, name, &req)
	if req.TTLSeconds > 0 && req.CreatedUnix == 0 {
		req.CreatedUnix = time.Now().Unix()
		stamp = true
	}
	if stamp {
		stamped, err := json.Marshal(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, "create body: %v", err)
			return
		}
		body = stamped
	}
	entry, err := NewEntry(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ts := s.tenantOrCreate(tenant)
	if err := s.admitCreate(ts, 1); err != nil {
		entry.Close()
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	ne := &namedEntry{name: name, entry: entry, expiresAt: req.expiryUnix()}
	if err := ts.install(ne); err != nil {
		entry.Close()
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	if s.dur != nil {
		ne.walMu.Lock()
		ne.lastLSN = s.dur.Append(durable.OpCreate, ts.walName, name, body)
		ne.walMu.Unlock()
	}
	writeJSON(w, http.StatusCreated, map[string]any{"tenant": tenant, "name": name, "type": entry.Type()})
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	ts, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if s.overByteQuota(ts) {
		httpError(w, http.StatusTooManyRequests, "tenant %q over resident-byte quota", ts.name)
		return
	}
	body, release, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer release()
	// Split zero-copy into a pooled header slice: the item slices alias
	// the pooled body buffer, and entries are contractually forbidden
	// from retaining either, so both recycle at the end of the request.
	ip := s.itemsPool.Get().(*[][]byte)
	items := SplitBatchAppend((*ip)[:0], body)
	defer func() {
		clear(items) // drop aliases into the body buffer before pooling
		*ip = items[:0]
		s.itemsPool.Put(ip)
	}()
	// Durable path: apply + WAL append + LSN bookkeeping are atomic
	// under the per-sketch WAL lock so a concurrent snapshot capture
	// sees bytes consistent with the recorded LSN. The append itself
	// only copies the batch into the bounded queue; disk I/O and fsync
	// happen on the background syncer, off this path.
	if s.dur != nil {
		e.walMu.Lock()
		err := e.entry.Add(items)
		if err == nil {
			e.lastLSN = s.dur.Append(durable.OpIngest, ts.walName, e.name, body)
		}
		e.walMu.Unlock()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else if err := e.entry.Add(items); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e.adds.Add(uint64(len(items)))
	ts.adds.Add(uint64(len(items)))
	s.ops.Adds.Add(uint64(len(items)))
	s.ops.AddBatches.Inc()
	s.ops.BatchBytes.Add(uint64(len(body)))
	writeJSON(w, http.StatusOK, map[string]any{"added": len(items)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ts, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !s.guardRead(w, ts, e) {
		return
	}
	res, err := e.entry.Query(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ts.queries.Inc()
	s.ops.Queries.Inc()
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	ts, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	body, release, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer release()
	if IsBundle(body) {
		// Fan-in: decode and tree-merge the bundle across cores while
		// holding no locks, then absorb the single combined envelope
		// below — one lock acquisition and one WAL record for N shards.
		combined, err := CombineBundle(body)
		if err != nil {
			status := http.StatusBadRequest
			switch {
			case errors.Is(err, core.ErrIncompatible):
				status = http.StatusConflict
			case errors.Is(err, ErrUnsupported):
				status = http.StatusMethodNotAllowed
			}
			httpError(w, status, "%v", err)
			return
		}
		body = combined
	}
	var err error
	if s.dur != nil {
		e.walMu.Lock()
		err = e.entry.Merge(body)
		if err == nil {
			e.lastLSN = s.dur.Append(durable.OpMerge, ts.walName, e.name, body)
		}
		e.walMu.Unlock()
	} else {
		err = e.entry.Merge(body)
	}
	if err != nil {
		// Incompatible shapes are a semantic conflict; a non-mergeable
		// family is a capability gap; corrupt bytes are a malformed
		// request.
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, core.ErrIncompatible):
			status = http.StatusConflict
		case errors.Is(err, ErrUnsupported):
			status = http.StatusMethodNotAllowed
		}
		httpError(w, status, "%v", err)
		return
	}
	ts.merges.Inc()
	s.ops.Merges.Inc()
	writeJSON(w, http.StatusOK, map[string]any{"merged": true})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ts, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	// A snapshot reveals strictly more than an estimate (the attacker
	// can evaluate the state offline, unmetered), so it draws from the
	// same read budget as /query. Replication ships WAL segments over
	// /v1/repl/* and the durability snapshotter runs in-process —
	// neither touches this guard.
	if !s.guardRead(w, ts, e) {
		return
	}
	// ?wire=slim asks for the family's slim envelope (the wire-efficient
	// form, registry.SlimMarshaler); families without one serve the full
	// envelope, so the parameter is a safe hint on any type.
	q := r.URL.Query()
	wire := q.Get("wire")
	if wire != "" && wire != "full" && wire != "slim" {
		httpError(w, http.StatusBadRequest, "bad wire mode %q (want full or slim)", wire)
		return
	}
	// ?for=<escaped query> says which query the reader will ask of the
	// envelope: a family that can project it answers with just the cells
	// that query reads, every other family (or query) with the envelope
	// below — one round trip either way, behind the same guard.
	var data []byte
	served := "" // the form that goes out, as X-Sketch-Wire names it
	if forQuery := q.Get("for"); forQuery != "" {
		fq, err := url.ParseQuery(forQuery)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad for= query: %v", err)
			return
		}
		if data, err = e.entry.Project(fq); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if data != nil {
			served = "projection"
		}
	}
	if data == nil {
		// The envelope is marshalled into a pooled buffer, which goes
		// back only once Write below has returned: net/http has copied
		// or sent the bytes by then, and nothing else keeps them.
		bp := s.envPool.Get().(*[]byte)
		defer s.envPool.Put(bp)
		var slim bool
		var err error
		if data, slim, err = e.entry.SnapshotWire((*bp)[:0], wire == "slim"); err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		*bp = data // keep what the marshal grew
		if slim {
			served = "slim"
		}
	}
	s.ops.Snapshots.Inc()
	s.countWire(e.entry.Type(), served, len(data))
	w.Header().Set("Content-Type", "application/octet-stream")
	// An explicit length (the server would otherwise chunk anything past
	// its 2 KB sniff buffer) lets the reader size its buffer once.
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	if served != "" {
		w.Header().Set("X-Sketch-Wire", served)
	}
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ts := s.tenant(tenantOf(r))
	var ne *namedEntry
	if ts != nil {
		ne = ts.drop(name)
	}
	if ne == nil {
		httpError(w, http.StatusNotFound, "no such sketch %q", name)
		return
	}
	ne.entry.Close()
	if s.dur != nil {
		s.dur.Append(durable.OpDelete, ts.walName, name, nil)
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// listDefaultLimit bounds GET /v1/sketch replies when the caller sets
// no ?limit= — a million-sketch tenant pages instead of serializing
// everything in one response. Follow next_cursor to continue.
const listDefaultLimit = 1000

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := listDefaultLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	out := []map[string]any{}
	var page []*namedEntry
	var more bool
	if ts := s.tenant(tenantOf(r)); ts != nil {
		page, more = ts.reg.list(q.Get("prefix"), q.Get("cursor"), limit)
	}
	for _, e := range page {
		out = append(out, map[string]any{"name": e.name, "type": e.entry.Type()})
	}
	doc := map[string]any{"sketches": out}
	if more {
		doc["truncated"] = true
		doc["next_cursor"] = page[len(page)-1].name
	}
	writeJSON(w, http.StatusOK, doc)
}

// TypeParam is one parameter row of a /v1/types schema.
type TypeParam struct {
	Name    string  `json:"name"`
	Doc     string  `json:"doc"`
	Default float64 `json:"default"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Float   bool    `json:"float,omitempty"`
}

// TypeInfo is one servable sketch family on /v1/types.
type TypeInfo struct {
	Name      string      `json:"name"`
	Family    string      `json:"family"`
	Doc       string      `json:"doc"`
	Tag       byte        `json:"tag"`
	Input     string      `json:"input"`
	Mergeable bool        `json:"mergeable"`
	Params    []TypeParam `json:"params"`
}

func (s *Server) handleTypes(w http.ResponseWriter, _ *http.Request) {
	var out []TypeInfo
	for _, d := range typereg.All() {
		if !d.Servable() {
			continue
		}
		params := make([]TypeParam, len(d.Params))
		for i, p := range d.Params {
			params[i] = TypeParam{Name: p.Name, Doc: p.Doc, Default: p.Def, Min: p.Min, Max: p.Max, Float: p.Float}
		}
		out = append(out, TypeInfo{
			Name:      d.Name,
			Family:    d.Family,
			Doc:       d.Doc,
			Tag:       d.Tag,
			Input:     d.Input.String(),
			Mergeable: d.Mergeable(),
			Params:    params,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"types": out})
}

// StatusResponse is the GET /v1/status document: liveness plus the
// durability gauges (wal_lsn, last_snapshot_lsn, wal_bytes,
// last_fsync_age_ms; enabled=false when running in-memory only) and
// the replication block (leader lag in records once a follower has
// polled, or a follower's own apply frontier).
type StatusResponse struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Sketches      int               `json:"sketches"`
	Ops           core.OpSnapshot   `json:"ops"`
	Wire          []WireStat        `json:"wire,omitempty"`
	Tenants       []TenantStat      `json:"tenants"`
	Durability    durable.Status    `json:"durability"`
	Replication   ReplicationStatus `json:"replication"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	tenants := s.tenantsSnapshot()
	stats := make([]TenantStat, 0, len(tenants))
	total := 0
	for _, ts := range tenants {
		st := ts.stat()
		total += int(st.Sketches)
		stats = append(stats, st)
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Sketches:      total,
		Ops:           s.ops.Snapshot(),
		Wire:          s.wireStats(),
		Tenants:       stats,
		Durability:    s.DurabilityStatus(),
		Replication:   s.ReplicationStatus(),
	})
}

// SketchStat is one sketch's row on /debug/statsz.
type SketchStat struct {
	Tenant string `json:"tenant,omitempty"`
	Name   string `json:"name"`
	Type   string `json:"type"`
	Bytes  int    `json:"bytes"`
	Adds   uint64 `json:"adds"`
}

// Statsz is the /debug/statsz response document.
type Statsz struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	AddsPerSec    float64         `json:"adds_per_sec"`
	Ops           core.OpSnapshot `json:"ops"`
	Wire          []WireStat      `json:"wire,omitempty"`
	Tenants       []TenantStat    `json:"tenants"`
	Sketches      []SketchStat    `json:"sketches"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	uptime := time.Since(s.start).Seconds()
	ops := s.ops.Snapshot()
	stats := Statsz{
		UptimeSeconds: uptime,
		Ops:           ops,
		Wire:          s.wireStats(),
		Sketches:      []SketchStat{},
	}
	if uptime > 0 {
		stats.AddsPerSec = float64(ops.Adds) / uptime
	}
	for _, ts := range s.tenantsSnapshot() {
		ts.refreshResident() // statsz reads double as gauge refresh
		stats.Tenants = append(stats.Tenants, ts.stat())
		tenantLabel := ""
		if ts.name != DefaultTenant {
			tenantLabel = ts.name
		}
		for _, e := range ts.reg.snapshot() {
			stats.Sketches = append(stats.Sketches, SketchStat{
				Tenant: tenantLabel,
				Name:   e.name,
				Type:   e.entry.Type(),
				Bytes:  int(e.bytes.Load()),
				Adds:   e.adds.Load(),
			})
		}
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*tenantState, *namedEntry, bool) {
	ts := s.tenant(tenantOf(r))
	if ts == nil {
		httpError(w, http.StatusNotFound, "%v: %q", ErrNotFound, r.PathValue("name"))
		return nil, nil, false
	}
	e, err := ts.reg.get(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return nil, nil, false
	}
	return ts, e, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}
