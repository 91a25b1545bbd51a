package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashx"
)

// ErrNotFound is returned when a request names a sketch that does not
// exist in the registry.
var ErrNotFound = fmt.Errorf("server: no such sketch")

// ErrExists is returned when creating a sketch under a taken name.
var ErrExists = fmt.Errorf("server: sketch already exists")

// registry is the namespace of live sketches. Name lookup is striped
// across independent read-write locks so that hot ingest paths for
// different sketches never contend on one global registry lock; the
// per-name entry then carries its own synchronization (lock-free for
// the concurrent wrappers, a mutex for the rest).
const registryStripes = 64

type registry struct {
	stripes [registryStripes]registryStripe
}

type registryStripe struct {
	mu sync.RWMutex
	m  map[string]*namedEntry
}

// namedEntry pairs an Entry with its registry metadata, per-sketch
// ingest counter (surfaced on /debug/statsz), and durability
// bookkeeping. When durability is enabled, walMu makes "apply to
// memory + append to WAL + record the LSN" atomic per sketch, and the
// snapshot capture takes the same lock — so a captured sketch's bytes
// provably include every WAL record at or below its lastLSN, which is
// exactly the replay skip rule.
type namedEntry struct {
	name  string
	entry *Entry
	adds  core.Counter

	// expiresAt is the TTL deadline in unix seconds (0 = never).
	// Immutable after install — set before the entry is published so
	// the reaper never races a half-built row.
	expiresAt int64
	// bytes is the last measured SizeBytes, folded into the owning
	// tenant's resident gauge (refreshed off the hot path).
	bytes atomic.Int64

	budget bucket // the sketch's query budget (QueryBudget)

	walMu   sync.Mutex
	lastLSN uint64 // guarded by walMu (recovery writes it single-threaded)
}

func newRegistry() *registry {
	r := &registry{}
	for i := range r.stripes {
		r.stripes[i].m = make(map[string]*namedEntry)
	}
	return r
}

func (r *registry) stripeFor(name string) *registryStripe {
	// XXHash64String hashes the string bytes in place; the []byte(name)
	// conversion it replaces heap-copied the name on every lookup.
	return &r.stripes[hashx.XXHash64String(name, 0)%registryStripes]
}

// get returns the named entry or ErrNotFound.
func (r *registry) get(name string) (*namedEntry, error) {
	s := r.stripeFor(name)
	s.mu.RLock()
	e, ok := s.m[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// create installs a prepared entry (name, expiry, and gauges already
// set by the caller), failing if the name is taken. The entry is claimed
// once the name is known to be free and before anyone can find it;
// nobody else can hold a lock of an unpublished entry, so the claim
// cannot block under the stripe lock.
func (r *registry) create(ne *namedEntry, claim hold) error {
	s := r.stripeFor(ne.name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[ne.name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, ne.name)
	}
	claim(ne)
	s.m[ne.name] = ne
	return nil
}

// remove deletes the named entry, returning it (nil if absent) so the
// caller can release entry-held resources — buffered serving instances
// own a propagator goroutine that must be stopped.
func (r *registry) remove(name string) *namedEntry {
	s := r.stripeFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	ne, ok := s.m[name]
	if !ok {
		return nil
	}
	delete(s.m, name)
	return ne
}

// list returns up to limit entries sorted by name, restricted to a
// name prefix, resuming strictly after the cursor name. more reports
// whether entries past the returned page exist (the pagination
// contract behind GET /v1/sketch?prefix=&limit=&cursor=).
func (r *registry) list(prefix, after string, limit int) (page []*namedEntry, more bool) {
	all := r.snapshot()
	for _, ne := range all {
		if prefix != "" && !strings.HasPrefix(ne.name, prefix) {
			continue
		}
		if after != "" && ne.name <= after {
			continue
		}
		if limit > 0 && len(page) == limit {
			return page, true
		}
		page = append(page, ne)
	}
	return page, false
}

// snapshot returns all entries sorted by name.
func (r *registry) snapshot() []*namedEntry {
	var out []*namedEntry
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.RLock()
		for _, e := range s.m {
			out = append(out, e)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
