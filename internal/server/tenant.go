package server

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// DefaultTenant is the namespace behind the legacy /v1/sketch/... API:
// requests that name no tenant (neither a /v1/t/{tenant}/ route nor an
// X-Sketch-Tenant header) land here, so a pre-multi-tenant client sees
// exactly the old single-namespace server. In the WAL and snapshots
// the default tenant is encoded as the empty string, which is also
// what every version-1 record decodes to — old logs replay into it.
const DefaultTenant = "default"

// TenantHeader is the header alternative to the /v1/t/{tenant}/ route
// prefix, for clients that want tenant scoping without new URLs.
const TenantHeader = "X-Sketch-Tenant"

// TenantQuota caps one tenant's footprint. Zero fields are unlimited.
// Enforcement returns 429 on breach: creates count sketches and
// resident bytes; ingest checks resident bytes only (one atomic load,
// so the zero-allocation hot path keeps its shape). Resident bytes are
// refreshed on statsz reads and reaper sweeps, so enforcement lags
// growth by at most one sweep interval.
type TenantQuota struct {
	MaxSketches int   `json:"max_sketches,omitempty"`
	MaxBytes    int64 `json:"max_bytes,omitempty"`

	// MaxQPS caps the tenant's reads per second (429 over the cap,
	// with Retry-After). Only the adaptive-read surface — /query and
	// /snapshot — is gated: ingest, merges, and listings are never
	// rate-limited, so a throttled tenant keeps writing.
	MaxQPS int `json:"max_qps,omitempty"`
}

// tenantState is one tenant's slice of the server: its own striped
// sketch registry plus the gauges the quota checks and /v1/status
// read. walName is what WAL records carry — empty for the default
// tenant so default-tenant records stay byte-compatible with the
// single-tenant format's semantics.
type tenantState struct {
	name    string
	walName string
	reg     *registry

	sketches  atomic.Int64
	resident  atomic.Int64
	adds      core.Counter
	queries   core.Counter
	merges    core.Counter
	evictions core.Counter
	throttled core.Counter // queries refused by the QPS cap or a sketch budget

	// qpsTokens/qpsWindow are the tenant's queries-per-second bucket
	// (TenantQuota.MaxQPS), refilled lazily by allowTenantQuery.
	qpsTokens atomic.Int64
	qpsWindow atomic.Int64
}

func newTenantState(name string) *tenantState {
	ts := &tenantState{name: name, reg: newRegistry()}
	if name != DefaultTenant {
		ts.walName = name
	}
	return ts
}

// create builds the sketch req describes, in the serving mode buffered
// selects — from data, its recovered envelope, when restored — and
// publishes it under name, claimed and fully built (expiry included, so
// the reaper never sees a half-initialized row). It is the one way a
// sketch enters a namespace: a live create, a group-by's new group, a
// replayed record and a restored snapshot row all come through here.
func (ts *tenantState) create(name string, req CreateRequest, data []byte, claim hold, buffered bool) (*namedEntry, error) {
	var entry *Entry
	var err error
	if data != nil {
		entry, err = RestoreEntry(req, data, buffered)
	} else {
		entry, err = newEntry(req, buffered)
	}
	if err != nil {
		return nil, err
	}
	ne := &namedEntry{name: name, entry: entry, expiresAt: req.expiryUnix()}
	ne.bytes.Store(int64(entry.SizeBytes()))
	if err := ts.reg.create(ne, claim); err != nil {
		entry.Close()
		return nil, err
	}
	ts.sketches.Add(1)
	ts.resident.Add(ne.bytes.Load())
	return ne, nil
}

// remove is the one way a sketch leaves a namespace: it unpublishes the
// name, unwinds the gauges and stops what the entry owns. False when
// there is no such sketch.
func (ts *tenantState) remove(name string) bool {
	ne := ts.reg.remove(name)
	if ne == nil {
		return false
	}
	ts.sketches.Add(-1)
	ts.resident.Add(-ne.bytes.Load())
	ne.entry.Close()
	return true
}

// refreshResident re-measures every live sketch and folds the deltas
// into the resident-bytes gauge. Runs off the hot path (statsz reads,
// reaper sweeps).
func (ts *tenantState) refreshResident() {
	for _, ne := range ts.reg.snapshot() {
		now := int64(ne.entry.SizeBytes())
		old := ne.bytes.Swap(now)
		ts.resident.Add(now - old)
	}
}

// TenantStat is one tenant's gauge row on /v1/status and /debug/statsz.
type TenantStat struct {
	Tenant        string `json:"tenant"`
	Sketches      int64  `json:"sketches"`
	ResidentBytes int64  `json:"resident_bytes"`
	Adds          uint64 `json:"adds"`
	Queries       uint64 `json:"queries"`
	Merges        uint64 `json:"merges"`
	Evictions     uint64 `json:"evictions"`
	Throttled     uint64 `json:"throttled"`
}

func (ts *tenantState) stat() TenantStat {
	return TenantStat{
		Tenant:        ts.name,
		Sketches:      ts.sketches.Load(),
		ResidentBytes: ts.resident.Load(),
		Adds:          ts.adds.Load(),
		Queries:       ts.queries.Load(),
		Merges:        ts.merges.Load(),
		Evictions:     ts.evictions.Load(),
		Throttled:     ts.throttled.Load(),
	}
}

// validTenantName gates namespace creation (lookups just miss). Names
// must be short and URL/WAL-clean: letters, digits, '.', '_', '-'.
func validTenantName(t string) bool {
	if t == "" || len(t) > 128 {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// tenant returns the named tenant's state, or nil if the namespace has
// never been created into.
func (s *Server) tenant(name string) *tenantState {
	s.tmu.RLock()
	ts := s.tenants[name]
	s.tmu.RUnlock()
	return ts
}

// tenantOrCreate returns the tenant's state, materializing the
// namespace on first use. Tenants are implicit: the first create into
// a namespace brings it into being (its history in the WAL does the
// same on replay).
func (s *Server) tenantOrCreate(name string) *tenantState {
	if ts := s.tenant(name); ts != nil {
		return ts
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if ts := s.tenants[name]; ts != nil {
		return ts
	}
	ts := newTenantState(name)
	s.tenants[name] = ts
	return ts
}

// walTenantState resolves a WAL record's tenant field (empty = default)
// during replay, creating the namespace as needed.
func (s *Server) walTenantState(walTenant string) *tenantState {
	if walTenant == "" {
		return s.tenantOrCreate(DefaultTenant)
	}
	return s.tenantOrCreate(walTenant)
}

// tenantsSnapshot returns every tenant state sorted by name.
func (s *Server) tenantsSnapshot() []*tenantState {
	s.tmu.RLock()
	out := make([]*tenantState, 0, len(s.tenants))
	for _, ts := range s.tenants {
		out = append(out, ts)
	}
	s.tmu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// SetTenantQuota installs the per-tenant quota every namespace is held
// to (the zero quota is unlimited). Call before serving traffic.
func (s *Server) SetTenantQuota(q TenantQuota) { s.quota = q }

// admitCreate applies the create-side quota: sketch count and resident
// bytes. Best-effort under concurrency (two racing creates at the
// boundary may both pass); the gauges converge immediately after.
func (s *Server) admitCreate(ts *tenantState, adding int) error {
	q := s.quota
	if q.MaxSketches > 0 && ts.sketches.Load()+int64(adding) > int64(q.MaxSketches) {
		return fmt.Errorf("tenant %q over sketch quota (%d)", ts.name, q.MaxSketches)
	}
	if q.MaxBytes > 0 && ts.resident.Load() > q.MaxBytes {
		return fmt.Errorf("tenant %q over resident-byte quota (%d)", ts.name, q.MaxBytes)
	}
	return nil
}

// overByteQuota is the ingest-side check: one atomic load, preserving
// the allocation-free hot path.
func (s *Server) overByteQuota(ts *tenantState) bool {
	q := s.quota
	return q.MaxBytes > 0 && ts.resident.Load() > q.MaxBytes
}

// SweepExpired evicts every sketch whose TTL has elapsed at now,
// across all tenants, and returns how many it evicted. Each eviction
// is WAL-logged as a delete, so a post-kill-9 recovery replays the
// eviction instead of resurrecting the sketch — eviction survives
// crashes byte-identically. Exported so tests and experiments can
// drive deterministic sweeps; the background reaper calls it on a
// timer.
func (s *Server) SweepExpired(now time.Time) int {
	nowUnix := now.Unix()
	evicted := 0
	for _, ts := range s.tenantsSnapshot() {
		ts.refreshResident()
		for _, ne := range ts.reg.snapshot() {
			if ne.expiresAt == 0 || ne.expiresAt > nowUnix {
				continue
			}
			if !s.remove(ts, ne.name) {
				continue // raced with an explicit delete
			}
			ts.evictions.Inc()
			evicted++
		}
	}
	return evicted
}

// StartReaper launches the background TTL reaper, sweeping every
// interval. No-op for interval <= 0. Pair with StopReaper on shutdown.
func (s *Server) StartReaper(interval time.Duration) {
	if interval <= 0 || s.reaperStop != nil {
		return
	}
	stop := make(chan struct{})
	s.reaperStop = stop
	s.reaperWG.Add(1)
	go func() {
		defer s.reaperWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.SweepExpired(time.Now())
			case <-stop:
				return
			}
		}
	}()
}

// StopReaper stops the background reaper and waits for any in-flight
// sweep to finish. Call before CloseDurability so the reaper cannot
// append to a closed WAL.
func (s *Server) StopReaper() {
	if s.reaperStop == nil {
		return
	}
	close(s.reaperStop)
	s.reaperWG.Wait()
	s.reaperStop = nil
}
