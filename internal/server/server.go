// Package server implements sketchd, the HTTP serving layer over the
// sketch library: a namespace registry of named sketches with
// endpoints for streaming ingest (newline-delimited batches), point
// and estimate queries, mergeable-summary exchange (the peer posts a
// MarshalBinary envelope, per the Mergeable Summaries model the paper
// builds on), and serialization out. Hot sketch types ride the
// holders in internal/concurrent — the sharded HLL, the lock-free
// Count-Min and blocked Bloom — so ingest throughput scales with client
// concurrency; every other family is its plain sketch behind the
// registry's locked holder (registry.Descriptor.Serving), whose lock is
// around the apply or the read: a batch is parsed, validated and hashed
// outside it. Entry itself holds no lock.
//
// Every route is a row of Ops (ops.go), the one table this server's
// mux, the coordinator's mux, the client's URLs and the documented API
// are read from. Every sketch lives in a tenant namespace (tenant.go).
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
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	typereg "repro/internal/registry"
)

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

	bufferedIngest bool // see SetBufferedIngest

	ops     core.OpCounters
	wire    map[string]*wireCounters // per-family snapshot wire bytes
	start   time.Time
	bodies  BodyPool
	envPool sync.Pool // *[]byte /snapshot response envelopes
	mux     *http.ServeMux

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
	s.envPool.New = func() any { return new([]byte) }
	s.mux = http.NewServeMux()
	Mount(s.mux, false, map[string]http.HandlerFunc{
		"create": s.handleCreate, "add": s.handleAdd, "query": s.handleQuery,
		"merge": s.handleMerge, "snapshot": s.handleSnapshot, "delete": s.handleDelete,
		"list": s.handleList, "groupby": s.handleGroupBy, "overlap": s.handleOverlap,
		"types": HandleTypes, "status": s.handleStatus, "statsz": s.handleStatsz,
		"repl-status": s.handleReplStatus, "repl-file": s.handleReplFile, "repl-seal": s.handleReplSeal,
	})
	return s
}

// SetBufferedIngest (sketchd -concurrent-ingest=buffered) serves the
// hll, countmin and blockedbloom sketches this server creates or
// recovers in their buffered form. Call before recovery or traffic.
func (s *Server) SetBufferedIngest(on bool) { s.bufferedIngest = on }

// Handler returns the route multiplexer.
func (s *Server) Handler() http.Handler { return s.mux }

// Ops exposes the operation counters (read-only use).
func (s *Server) Ops() *core.OpCounters { return &s.ops }

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	tenant := TenantOf(r)
	if !validTenantName(tenant) {
		HTTPError(w, http.StatusBadRequest, "invalid tenant name %q", tenant)
		return
	}
	name := r.PathValue("name")
	body, release, ok := s.bodies.Read(w, r)
	if !ok {
		return
	}
	defer release()
	var req CreateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		HTTPError(w, http.StatusBadRequest, "create body: %v", err)
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
			HTTPError(w, http.StatusBadRequest, "create body: %v", err)
			return
		}
		body = stamped
	}
	ts := s.tenantOrCreate(tenant)
	if err := s.admitCreate(ts, 1); err != nil {
		HTTPError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	var ne *namedEntry
	err := s.logged(ts, durable.OpCreate, name, body, func(claim hold) (_ int, err error) {
		ne, err = ts.create(name, req, nil, claim, s.bufferedIngest)
		return 1, err
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrExists) {
			status = http.StatusConflict
		}
		HTTPError(w, status, "%v", err)
		return
	}
	WriteJSON(w, http.StatusCreated, map[string]any{"tenant": tenant, "name": name, "type": ne.entry.Type()})
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	ts, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if s.overByteQuota(ts) {
		HTTPError(w, http.StatusTooManyRequests, "tenant %q over resident-byte quota", ts.name)
		return
	}
	body, release, ok := s.bodies.Read(w, r)
	if !ok {
		return
	}
	defer release() // the entry does not retain the body, nor the WAL once Append returns
	var n int
	err := s.logged(ts, durable.OpIngest, e.name, body, func(claim hold) (_ int, err error) {
		claim(e)
		n, err = e.entry.Ingest(body)
		return 1, err
	})
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e.adds.Add(uint64(n))
	ts.adds.Add(uint64(n))
	s.ops.Adds.Add(uint64(n))
	s.ops.AddBatches.Inc()
	s.ops.BatchBytes.Add(uint64(len(body)))
	WriteAdded(w, n)
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
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ts.queries.Inc()
	s.ops.Queries.Inc()
	WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	ts, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	body, release, ok := s.bodies.Read(w, r)
	if !ok {
		return
	}
	defer release()
	var err error
	if IsBundle(body) {
		// Fan-in: decode and tree-merge the bundle across cores while
		// holding no locks, then absorb the single combined envelope
		// below — one lock acquisition and one WAL record for N shards.
		body, err = CombineBundle(body)
	}
	if err == nil {
		err = s.logged(ts, durable.OpMerge, e.name, body, func(claim hold) (int, error) {
			claim(e)
			return 1, e.entry.Merge(body)
		})
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
		HTTPError(w, status, "%v", err)
		return
	}
	ts.merges.Inc()
	s.ops.Merges.Inc()
	WriteJSON(w, http.StatusOK, map[string]any{"merged": true})
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
	wantSlim, err := WireSlim(q.Get("wire"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
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
			HTTPError(w, http.StatusBadRequest, "bad for= query: %v", err)
			return
		}
		if data, err = e.entry.Project(fq); err != nil {
			HTTPError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if data != nil {
			served = "projection"
		}
	}
	if data == nil {
		// The state's tag is read before it is marshalled (see
		// Entry.appendTag), and a reader already holding the bytes it
		// names gets a 304 and no body: If-None-Match must carry
		// exactly that one strong tag.
		tag := string(e.entry.appendTag(make([]byte, 0, 64)))
		if r.Header.Get("If-None-Match") == tag {
			s.ops.NotModified.Inc()
			s.countWire(e.entry.Type(), "not-modified", 0)
			w.Header().Set("ETag", tag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		// The envelope is marshalled into a pooled buffer, which goes
		// back only once Write below has returned: net/http has copied
		// or sent the bytes by then, and nothing else keeps them.
		bp := s.envPool.Get().(*[]byte)
		defer s.envPool.Put(bp)
		var slim bool
		if data, slim, err = e.entry.SnapshotWire((*bp)[:0], wantSlim); err != nil {
			HTTPError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		*bp = data // keep what the marshal grew
		w.Header().Set("ETag", tag)
		if slim {
			served = "slim"
		}
	}
	s.ops.Snapshots.Inc()
	s.countWire(e.entry.Type(), served, len(data))
	if served != "" {
		w.Header().Set("X-Sketch-Wire", served)
	}
	WriteEnvelope(w, data)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if ts := s.tenant(TenantOf(r)); ts == nil || !s.remove(ts, name) {
		HTTPError(w, http.StatusNotFound, "no such sketch %q", name)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"deleted": name})
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
			HTTPError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	out := []map[string]any{}
	var page []*namedEntry
	var more bool
	if ts := s.tenant(TenantOf(r)); ts != nil {
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
	WriteJSON(w, http.StatusOK, doc)
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

// HandleTypes serves the type catalogue. It reads only the linked
// registry, so a coordinator mounts it as it is.
func HandleTypes(w http.ResponseWriter, _ *http.Request) {
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
	WriteJSON(w, http.StatusOK, map[string]any{"types": out})
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
	WriteJSON(w, http.StatusOK, StatusResponse{
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
	WriteJSON(w, http.StatusOK, stats)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*tenantState, *namedEntry, bool) {
	ts := s.tenant(TenantOf(r))
	if ts == nil {
		HTTPError(w, http.StatusNotFound, "%v: %q", ErrNotFound, r.PathValue("name"))
		return nil, nil, false
	}
	e, err := ts.reg.get(r.PathValue("name"))
	if err != nil {
		HTTPError(w, http.StatusNotFound, "%v", err)
		return nil, nil, false
	}
	return ts, e, true
}
