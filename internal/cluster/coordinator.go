package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Options configures a Coordinator. Zero values take the documented
// defaults.
type Options struct {
	// MaxInflight bounds concurrent shard requests across all fan-outs
	// (ingest and scatter-gather combined). Excess work queues on the
	// semaphore rather than piling goroutines onto a slow shard.
	// Default 4 × shard count.
	MaxInflight int
	// Retries is how many times a failed shard ingest request is
	// retried (transport errors and 5xx only — a 4xx is the request's
	// fault and repeats identically). Default 2.
	Retries int
	// RetryBackoff is the first retry's delay, doubled per attempt.
	// Default 50ms.
	RetryBackoff time.Duration
}

func (o *Options) applyDefaults(shards int) {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * shards
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
}

// CoordCounters are the coordinator's own operation counters,
// surfaced on its /v1/status.
type CoordCounters struct {
	Adds           core.Counter // items acknowledged by the shards they were sent to
	AddBatches     core.Counter // client ingest requests
	ShardRequests  core.Counter // shard HTTP calls issued (incl. retries)
	Retries        core.Counter // shard calls retried
	Queries        core.Counter // scatter-gather queries answered
	PartialQueries core.Counter // queries answered with a shard missing
	ShardFailures  core.Counter // shard calls that failed after retries
	GatherBytes    core.Counter // envelope bytes read from shards by gathers
	SlimGathers    core.Counter // gathers that requested slim envelopes
	NotModified    core.Counter // shard replies that were 304: the gather slot's envelope was current

	ProjectedGathers core.Counter // queries answered from shard projections (registry.Projection), not envelopes
	MixedRegathers   core.Counter // queries re-gathered in full because only part of the fleet projected
	WireMerges       core.Counter // reads whose shard envelopes merged as bytes (Descriptor.MergeWire): none was decoded
	HeldFolds        core.Counter // of WireMerges, reads every shard answered 304: the slot's held fold was the answer
	HeldAnswers      core.Counter // of HeldFolds, /query reads written from the reply stored with the held fold
}

// CoordCountersSnapshot is the JSON rendering of CoordCounters.
type CoordCountersSnapshot struct {
	Adds           uint64 `json:"adds"`
	AddBatches     uint64 `json:"add_batches"`
	ShardRequests  uint64 `json:"shard_requests"`
	Retries        uint64 `json:"retries"`
	Queries        uint64 `json:"queries"`
	PartialQueries uint64 `json:"partial_queries"`
	ShardFailures  uint64 `json:"shard_failures"`
	GatherBytes    uint64 `json:"gather_bytes"`
	SlimGathers    uint64 `json:"slim_gathers"`
	NotModified    uint64 `json:"not_modified"`

	ProjectedGathers uint64 `json:"projected_gathers"`
	MixedRegathers   uint64 `json:"mixed_regathers"`
	WireMerges       uint64 `json:"wire_merges"`
	HeldFolds        uint64 `json:"held_folds"`
	HeldAnswers      uint64 `json:"held_answers"`
}

func (c *CoordCounters) snapshot() CoordCountersSnapshot {
	return CoordCountersSnapshot{
		Adds:           c.Adds.Load(),
		AddBatches:     c.AddBatches.Load(),
		ShardRequests:  c.ShardRequests.Load(),
		Retries:        c.Retries.Load(),
		Queries:        c.Queries.Load(),
		PartialQueries: c.PartialQueries.Load(),
		ShardFailures:  c.ShardFailures.Load(),
		GatherBytes:    c.GatherBytes.Load(),
		SlimGathers:    c.SlimGathers.Load(),
		NotModified:    c.NotModified.Load(),

		ProjectedGathers: c.ProjectedGathers.Load(),
		MixedRegathers:   c.MixedRegathers.Load(),
		WireMerges:       c.WireMerges.Load(),
		HeldFolds:        c.HeldFolds.Load(),
		HeldAnswers:      c.HeldAnswers.Load(),
	}
}

// Coordinator fronts a set of sketchd shards: creates broadcast, an
// ingest batch (or a peer envelope to merge) goes whole to one shard in
// rotation, and reads scatter-gather every shard's envelope and merge
// them into the global answer — as bytes, folded into a copy of the
// first envelope, where the family merges on the wire
// (registry.Descriptor.MergeWire), decoded and tree-merged otherwise.
// It holds no sketch state of its own — shards own the data, the
// coordinator owns the rotation and the merge. What it keeps of the
// shards' envelopes between whole-state reads (slots.go), and the fold
// of them it answers with while nothing changed, is a cache that every
// read revalidates with every shard.
type Coordinator struct {
	ring    *Ring
	shards  []string
	clients []*client.Client
	opts    Options
	ops     CoordCounters
	start   time.Time
	sem     chan struct{}
	mux     *http.ServeMux
	turn    atomic.Uint64 // toOne's rotation: how many turns have been taken

	bodies     server.BodyPool
	slots      slotCache // whole-state reads: every shard's last envelope and tag
	gatherPool sync.Pool // *[][]byte per-shard envelope read buffers of projected reads
	envPool    sync.Pool // *foldBuf a read's copy of its first envelope, or the marshalled merge of a family that merges decoded
}

// ShardURLs normalizes a list of shard addresses to base URLs: spaces
// and trailing slashes go, and a bare host:port gets the http scheme.
func ShardURLs(shards []string) []string {
	urls := make([]string, len(shards))
	for i, s := range shards {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		urls[i] = s
	}
	return urls
}

// NewCoordinator builds a coordinator over shard addresses.
func NewCoordinator(shards []string, opts Options) (*Coordinator, error) {
	ring, err := NewRing(ShardURLs(shards), 0)
	if err != nil {
		return nil, err
	}
	opts.applyDefaults(len(shards))
	c := &Coordinator{
		ring:    ring,
		shards:  ring.Shards(),
		clients: make([]*client.Client, len(shards)),
		opts:    opts,
		start:   time.Now(),
		sem:     make(chan struct{}, opts.MaxInflight),
	}
	for i, s := range c.shards {
		c.clients[i] = client.New(s)
	}
	c.gatherPool.New = func() any {
		bufs := make([][]byte, len(c.shards))
		return &bufs // per-shard capacities grow to envelope size on first use
	}
	c.envPool.New = func() any { return new(foldBuf) }
	c.buildMux()
	return c, nil
}

// Ring returns the consistent-hash ring over the shards (read-only
// use). Nothing the coordinator serves routes by it.
func (c *Coordinator) Ring() *Ring { return c.ring }

// Shards returns the shard base URLs.
func (c *Coordinator) Shards() []string { return append([]string(nil), c.shards...) }

// ShardError is one failed shard call in a fan-out, with the shard
// named — partial failures must never be anonymous. When the failure
// was an HTTP status from the shard, Code carries it (0 for transport
// errors), and RetryAfterS carries the shard's Retry-After hint in
// seconds — how the coordinator distinguishes "shard down" (503) from
// "shard refusing adaptive queries" (429, see the query-budget guard
// in internal/server) and passes the throttle through to the client.
type ShardError struct {
	Shard       string `json:"shard"`
	Err         string `json:"error"`
	Code        int    `json:"code,omitempty"`
	RetryAfterS int64  `json:"retry_after_s,omitempty"`
}

// shardError builds the ShardError row for one failed call, lifting
// the HTTP status and Retry-After out of a client.StatusError.
func shardError(shard string, err error) ShardError {
	se := ShardError{Shard: shard, Err: err.Error()}
	var st *client.StatusError
	if errors.As(err, &st) {
		se.Code = st.Code
		if st.RetryAfter > 0 {
			se.RetryAfterS = int64((st.RetryAfter + time.Second - 1) / time.Second)
		}
	}
	return se
}

// retryable reports whether a shard call error is worth repeating:
// transport-level failures (connection refused, timeouts) and 5xx
// statuses. A 4xx means the request itself is bad and will fail again.
func retryable(err error) bool {
	var se *client.StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true // transport error
}

// inflight runs fn holding one of the MaxInflight slots.
func (c *Coordinator) inflight(fn func() error) error {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	return fn()
}

// callShard runs one shard call under the in-flight bound, with
// retry + exponential backoff on retryable errors. A shard-provided
// Retry-After that exceeds the computed backoff wins — the shard knows
// when its window reopens better than our doubling schedule does. The
// in-flight slot is held for an attempt, not across the wait between
// two: a down shard's back-off must not starve calls to healthy ones.
func (c *Coordinator) callShard(fn func() error) error {
	backoff := c.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		c.ops.ShardRequests.Inc()
		err := c.inflight(fn)
		if err == nil {
			return nil
		}
		if attempt >= c.opts.Retries || !retryable(err) {
			c.ops.ShardFailures.Inc()
			return err
		}
		c.ops.Retries.Inc()
		sleep := backoff
		var se *client.StatusError
		if errors.As(err, &se) && se.RetryAfter > sleep {
			sleep = se.RetryAfter
		}
		time.Sleep(sleep)
		backoff *= 2
	}
}

// scatter runs fn for every shard concurrently, each with its index
// and client, and returns the errors by shard index. It is the one
// fan-out loop; what a call costs (callShard's bound and retries, or a
// plain status poll) is fn's choice.
func (c *Coordinator) scatter(fn func(i int, cl *client.Client) error) []error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, c.clients[i])
		}()
	}
	wg.Wait()
	return errs
}

// failures names the shards whose scatter call failed.
func (c *Coordinator) failures(errs []error) []ShardError {
	var out []ShardError
	for i, err := range errs {
		if err != nil {
			out = append(out, shardError(c.shards[i], err))
		}
	}
	return out
}

// toOne runs fn against one shard — the next in rotation, a turn taken
// per call and not per key — under callShard, and names that shard when
// the call fails. It is how a mutation any shard can absorb (an ingest
// batch, a peer envelope) enters the cluster: the union of the shards'
// partial summaries is the same wherever it lands.
func (c *Coordinator) toOne(tenant string, fn func(cl *client.Client) error) []ShardError {
	i := int(c.turn.Add(1) % uint64(len(c.shards)))
	cl := c.clients[i].Tenant(tenant)
	if err := c.callShard(func() error { return fn(cl) }); err != nil {
		return []ShardError{shardError(c.shards[i], err)}
	}
	return nil
}

// FanOutAdd sends one ingest body to one shard, in the default tenant
// namespace.
func (c *Coordinator) FanOutAdd(name string, body []byte) (int, []ShardError) {
	return c.FanOutAddTenant("", name, body)
}

// FanOutAddTenant sends one ingest body, whole and as it arrived, to
// the shard whose turn it is, into that tenant's namespace ("" =
// default, legacy shard paths). Returns the item count that shard
// acknowledged, or the shard's failure (after retries, to the same
// shard). The batch is on exactly one shard or, when the call failed
// before the shard applied it, on none.
func (c *Coordinator) FanOutAddTenant(tenant, name string, body []byte) (added int, fails []ShardError) {
	fails = c.toOne(tenant, func(cl *client.Client) (err error) {
		added, err = cl.AddBatchCounted(name, body)
		return err
	})
	return added, fails
}

// Gather scatter-gathers the named sketch's envelope from every shard
// in the default tenant namespace.
func (c *Coordinator) Gather(name string) ([][]byte, []ShardError) {
	return c.GatherTenant("", name)
}

// GatherTenant scatter-gathers the named sketch's envelope from every
// shard in a tenant's namespace. Returns the envelopes that arrived
// and the failures, shard-named.
func (c *Coordinator) GatherTenant(tenant, name string) ([][]byte, []ShardError) {
	envs := make([][]byte, len(c.shards))
	errs := c.scatter(func(i int, cl *client.Client) error {
		return c.callShard(func() (err error) {
			envs[i], err = cl.Tenant(tenant).Snapshot(name)
			return err
		})
	})
	return arrived(envs, errs), c.failures(errs)
}

// arrived keeps the envelopes of the shards that answered, in shard
// order.
func arrived(envs [][]byte, errs []error) (ok [][]byte) {
	for i, env := range envs {
		if errs[i] == nil {
			ok = append(ok, env)
		}
	}
	return ok
}

// wireOf is the ?wire= a gather asks the shards for, counted as a slim
// gather when it is one.
func (c *Coordinator) wireOf(slim bool) string {
	if !slim {
		return ""
	}
	c.ops.SlimGathers.Inc()
	return "slim"
}

// gatherCached is the scatter-gather and merge of a whole-state read,
// through the slot of (tenant, name, wire form). Under the slot's lock
// it asks every shard for its envelope conditionally on the tag of the
// one the slot holds (client.Refresh), so an unchanged shard answers 304
// and sends nothing, and a changed one's reply replaces the slot's copy.
// When every shard answered 304 and the slot holds the fold of what they
// sent before, that fold is the answer: nothing is copied or merged.
// Otherwise the envelopes of the shards that answered are merged (see
// mergeArrived), the first copied into a pooled buffer of the read's
// own, because the merge folds into it; when every shard answered and
// they merged on the wire, that buffer becomes the slot's held fold.
// Either way a held fold is the read's g.fold. The caller calls
// g.release once it has answered from g.merged. A merge the envelopes
// refuse drops the slot rather than keep them, and a shard that no
// longer has the sketch drops the sketch's slots, as a delete does.
func (c *Coordinator) gatherCached(tenant, name string, slim, partial bool) (g gathered, err error) {
	wire := c.wireOf(slim)
	s := c.slots.get(slotKey{tenant, name, slim}, len(c.shards))
	s.mu.Lock()
	var changed atomic.Bool
	errs := c.scatter(func(i int, cl *client.Client) error {
		return c.callShard(func() error {
			ch, err := cl.Tenant(tenant).Refresh(name, wire, &s.shards[i])
			if ch {
				changed.Store(true)
				c.ops.GatherBytes.Add(uint64(len(s.shards[i].Env)))
			} else if err == nil {
				c.ops.NotModified.Inc()
			}
			return err
		})
	})
	g.fails = c.failures(errs)
	if fold := s.fold; fold != nil {
		if len(g.fails) == 0 && !changed.Load() && !s.dropped.Load() {
			fold.refs.Add(1)
			g.merged, g.fold, g.held = s.held, fold, true
			s.mu.Unlock()
			c.ops.HeldFolds.Inc()
			g.release = func() { fold.unref(&c.envPool) }
			return g, nil
		}
		s.fold, s.held = nil, registry.Merged{}
		fold.unref(&c.envPool)
	}
	var envs [][]byte
	gone := false
	for i, err := range errs {
		var se *client.StatusError
		if err == nil {
			envs = append(envs, s.shards[i].Env)
		} else if errors.As(err, &se) && se.Code == http.StatusNotFound {
			gone = true
		}
	}
	fb := c.envPool.Get().(*foldBuf)
	fb.refs.Store(1)
	if len(envs) > 0 {
		fb.b = append(fb.b[:0], envs[0]...)
		envs[0] = fb.b
	}
	if g.merged, err = mergeArrived(envs, g.fails, partial); err == nil && g.merged.Wire() && len(g.fails) == 0 {
		fb.refs.Add(1)
		s.fold, s.held = fb, g.merged
		g.fold = fb
	}
	size := s.size()
	s.mu.Unlock()
	switch {
	case gone:
		c.slots.drop(tenant, name)
	case err != nil && !errors.Is(err, errShardsMissing):
		c.slots.resize(s, -1)
	default:
		c.slots.resize(s, size)
	}
	g.release = func() { fb.unref(&c.envPool) }
	return g, err
}

// errShardsMissing is mergeArrived's refusal of a read that the shards
// which answered do not answer: none did, or some failed and the read
// does not allow a partial answer.
var errShardsMissing = errors.New("cluster: shards missing from the read")

// mergeArrived merges the envelopes of the shards that answered a read
// (registry.MergeEnvelopes, which folds into envs[0]), or refuses with
// errShardsMissing.
func mergeArrived(envs [][]byte, fails []ShardError, partial bool) (registry.Merged, error) {
	if len(envs) == 0 || len(fails) > 0 && !partial {
		return registry.Merged{}, errShardsMissing
	}
	return registry.MergeEnvelopes(envs)
}

// gatherPooled is the scatter-gather of a projected read: every shard's
// reply is read into a pooled per-shard buffer (client.SnapshotFor
// reuses the buffer's capacity). forQuery tells the shards the one
// query the envelopes will be asked, so a family that projects it ships
// the cells that query reads instead of its state, and slim asks for a
// slim envelope where a shard sends its state. The returned envelopes alias
// the pooled buffers, which the caller owns until it calls release: it
// may merge them in place, and must have finished with them — a merged
// envelope written out to the last byte — before it does.
func (c *Coordinator) gatherPooled(tenant, name string, slim bool, forQuery string) (envs [][]byte, fails []ShardError, release func()) {
	wire := c.wireOf(slim)
	bp := c.gatherPool.Get().(*[][]byte)
	bufs := *bp
	errs := c.scatter(func(i int, cl *client.Client) error {
		return c.callShard(func() (err error) {
			// Keep the (possibly grown) buffer either way.
			bufs[i], err = cl.Tenant(tenant).SnapshotFor(name, wire, forQuery, bufs[i])
			return err
		})
	})
	envs = arrived(bufs, errs)
	var total uint64
	for _, env := range envs {
		total += uint64(len(env))
	}
	c.ops.GatherBytes.Add(total)
	return envs, c.failures(errs), func() {
		*bp = bufs
		c.gatherPool.Put(bp)
	}
}

// MergeEnvelopes merges same-type GSK1 envelopes and returns the merged
// instance and its descriptor; the envelopes are left as they were. The
// registry's generic merge (registry.MergeEnvelopes) is what makes the
// coordinator family-agnostic: any mergeable family a shard can serve,
// the cluster can aggregate — as bytes where the family merges on the
// wire, decoded and tree-merged across cores otherwise.
func MergeEnvelopes(envs [][]byte) (any, *registry.Descriptor, error) {
	if len(envs) == 0 {
		return nil, nil, fmt.Errorf("cluster: no envelopes to merge")
	}
	// The merge folds into its first envelope: give it one of its own.
	own := append([][]byte{slices.Clone(envs[0])}, envs[1:]...)
	merged, err := registry.MergeEnvelopes(own)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: %w", err)
	}
	inst, err := merged.Instance()
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: merged envelope: %w", err)
	}
	return inst, merged.Desc, nil
}
