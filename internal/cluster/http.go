package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// The coordinator serves the same /v1/sketch surface as a single
// sketchd, so every existing client (sketchcli, the loadgen, curl
// scripts) points at a cluster unchanged:
//
//	POST   /v1/sketch/{name}           create, broadcast to all shards
//	POST   /v1/sketch/{name}/add       ingest, ring-routed fan-out
//	GET    /v1/sketch/{name}/query     scatter-gather + tree-merge
//	GET    /v1/sketch/{name}/snapshot  merged global envelope
//	DELETE /v1/sketch/{name}           broadcast
//	GET    /v1/cluster/status          ring + per-shard health
//	GET    /v1/status                  the coordinator's own counters
//
// Every sketch route also exists under /v1/t/{tenant}/... (or with the
// X-Sketch-Tenant header), forwarding to the same tenant namespace on
// the shards; non-default tenants route keys under a tenant-derived
// ring seed (SeedFor), so tenants spread independently. Group-by
// ingest is deliberately NOT forwarded: its one-WAL-record atomicity
// is a per-shard property, so it is served shard-local — point the
// group-by producer at a shard, or at a single sketchd. The same goes
// for the other sketchd routes with no cluster-wide meaning (merge,
// list, overlap, /v1/types): they answer 501 naming the operation as
// shard-local, in the JSON error body every other refusal uses.
//
// Reads take ?allow_partial=true to accept a degraded answer when a
// shard is down; the response then carries "partial": true plus the
// failed shard names, and every error or partial payload for a
// tenant-scoped call carries the tenant label. Without it, a shard
// failure is a 503 naming the shard — a silently incomplete merge is
// the one outcome the cluster must never produce.

const maxBodyBytes = 8 << 20 // match sketchd's ingest cap

func (c *Coordinator) buildMux() {
	mux := http.NewServeMux()
	for _, p := range []string{"/v1", "/v1/t/{tenant}"} {
		mux.HandleFunc("POST "+p+"/sketch/{name}", c.handleCreate)
		mux.HandleFunc("POST "+p+"/sketch/{name}/add", c.handleAdd)
		mux.HandleFunc("GET "+p+"/sketch/{name}/query", c.handleQuery)
		mux.HandleFunc("GET "+p+"/sketch/{name}/snapshot", c.handleSnapshot)
		mux.HandleFunc("DELETE "+p+"/sketch/{name}", c.handleDelete)
		mux.HandleFunc("POST "+p+"/sketch/{name}/merge", shardLocal("merge"))
		mux.HandleFunc("GET "+p+"/sketch", shardLocal("list"))
		mux.HandleFunc("GET "+p+"/overlap", shardLocal("overlap"))
		mux.HandleFunc("POST "+p+"/ingest/groupby", shardLocal("group-by ingest"))
	}
	mux.HandleFunc("GET /v1/types", shardLocal("the type catalogue"))
	mux.HandleFunc("GET /v1/cluster/status", c.handleClusterStatus)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	c.mux = mux
}

// tenantOf extracts the request's tenant: the /v1/t/{tenant} route
// value, else the X-Sketch-Tenant header. The default tenant
// normalizes to "" so it forwards over the legacy shard paths and
// routes with the unseeded ring — bit-identical to pre-tenant
// clusters.
func tenantOf(r *http.Request) string {
	t := r.PathValue("tenant")
	if t == "" {
		t = r.Header.Get(server.TenantHeader)
	}
	if t == server.DefaultTenant {
		return ""
	}
	return t
}

// ServeHTTP makes the coordinator an http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// shardLocal refuses a sketchd route the coordinator does not forward.
func shardLocal(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		httpError(w, http.StatusNotImplemented, "%s is shard-local: the coordinator does not forward it, ask a shard", op)
	}
}

// shardFailure writes the error a failed fan-out produces: the failed
// shards are named in both the error text and a structured field, and
// tenant-scoped calls carry the tenant label so a multi-tenant
// operator can attribute the degradation. Normally a 503 — but when
// every failure is a shard's 429 (query-budget or tenant-QPS
// throttle), the coordinator is not degraded, the workload is over
// budget: pass the 429 through with the largest shard Retry-After so
// the client backs off instead of failing over.
func shardFailure(w http.ResponseWriter, tenant, op string, fails []ShardError) {
	names := make([]string, len(fails))
	allThrottled := len(fails) > 0
	var retryAfter int64
	for i, f := range fails {
		names[i] = f.Shard
		if f.Code != http.StatusTooManyRequests {
			allThrottled = false
		}
		if f.RetryAfterS > retryAfter {
			retryAfter = f.RetryAfterS
		}
	}
	doc := map[string]any{
		"error":         fmt.Sprintf("%s failed on shard(s) %v", op, names),
		"failed_shards": fails,
	}
	if tenant != "" {
		doc["tenant"] = tenant
	}
	if allThrottled {
		if retryAfter < 1 {
			retryAfter = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfter, 10))
		writeJSON(w, http.StatusTooManyRequests, doc)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, doc)
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "read body: %v", err)
		return nil, false
	}
	return body, true
}

func allowPartial(r *http.Request) bool {
	return r.URL.Query().Get("allow_partial") == "true"
}

// handleCreate broadcasts the create to every shard — a cluster sketch
// exists everywhere or nowhere. On partial failure the successful
// shards are rolled back (best effort) so a retry does not hit
// already-exists conflicts.
func (c *Coordinator) handleCreate(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	name := r.PathValue("name")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	errs := c.scatter(func(_ int, cl *client.Client) error {
		return c.callShard(func() error { return cl.Tenant(tenant).CreateRaw(name, body) })
	})
	if fails := c.failures(errs); len(fails) > 0 {
		for i, err := range errs {
			if err == nil {
				cl := c.clients[i]
				go c.callShard(func() error { return cl.Tenant(tenant).Delete(name) })
			}
		}
		// A 4xx from every shard (bad params, duplicate name, quota) is
		// the request's fault, not availability — pass the first one
		// through.
		if len(fails) == len(c.shards) {
			if se := firstStatusError(errs); se != nil && se.Code < 500 {
				httpError(w, se.Code, "%s", se.Msg)
				return
			}
		}
		shardFailure(w, tenant, "create", fails)
		return
	}
	resp := map[string]any{"name": name, "shards": len(c.shards)}
	if tenant != "" {
		resp["tenant"] = tenant
	}
	writeJSON(w, http.StatusCreated, resp)
}

// firstStatusError returns the first HTTP-status error in errs, nil if
// every failure was transport-level.
func firstStatusError(errs []error) *client.StatusError {
	for _, err := range errs {
		var se *client.StatusError
		if errors.As(err, &se) {
			return se
		}
	}
	return nil
}

// handleAdd ring-routes the batch and fans the per-shard sub-batches
// out in parallel. Any shard still failing after retries fails the
// whole request with the shard named — acknowledging ingest that
// partially happened would silently skew every later estimate.
func (c *Coordinator) handleAdd(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	name := r.PathValue("name")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	c.ops.AddBatches.Inc()
	items, fails := c.FanOutAddTenant(tenant, name, body)
	if len(fails) > 0 {
		shardFailure(w, tenant, "add", fails)
		return
	}
	c.ops.Adds.Add(uint64(items))
	writeJSON(w, http.StatusOK, map[string]any{"added": items})
}

// wireMode resolves a read's envelope form: an explicit ?wire=full or
// ?wire=slim wins, otherwise the coordinator's SlimGather default
// applies. The error return is a client mistake (400).
func (c *Coordinator) wireMode(r *http.Request) (slim bool, err error) {
	switch wire := r.URL.Query().Get("wire"); wire {
	case "":
		return c.opts.SlimGather, nil
	case "full":
		return false, nil
	case "slim":
		return true, nil
	default:
		return false, fmt.Errorf("bad wire mode %q (want full or slim)", wire)
	}
}

// familyQuery is the request's query less the coordinator's own read
// parameters: what the family's Query binding will be asked.
func familyQuery(r *http.Request) url.Values {
	q := r.URL.Query()
	q.Del("allow_partial")
	q.Del("wire")
	return q
}

// mixedTags reports whether the envelopes are not all of one wire tag.
func mixedTags(envs [][]byte) bool {
	for i := 1; i < len(envs); i++ {
		a, _ := core.PeekTag(envs[i-1])
		if b, _ := core.PeekTag(envs[i]); a != b {
			return true
		}
	}
	return false
}

// gatherMerged runs the scatter-gather + tree-merge for a read over
// pooled envelope buffers; query is the one question the merged result
// will be asked (nil when the caller wants the whole state), which the
// shards may answer with a projection of it. It writes the error
// response itself when the read cannot be answered under the request's
// partial-failure policy.
func (c *Coordinator) gatherMerged(w http.ResponseWriter, r *http.Request, tenant, name string, query url.Values) (merged any, d *registry.Descriptor, fails []ShardError, ok bool) {
	c.ops.Queries.Inc()
	slim, err := c.wireMode(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, nil, false
	}
	forQuery := query.Encode()
	envs, fails, release := c.gatherPooled(tenant, name, slim, forQuery)
	if forQuery != "" && mixedTags(envs) {
		// Only part of the fleet projected (shards that predate ?for=
		// ship full envelopes): the two forms do not merge, so read
		// every shard in full, once.
		release()
		c.ops.MixedRegathers.Inc()
		envs, fails, release = c.gatherPooled(tenant, name, slim, "")
	}
	defer release()
	if len(fails) > 0 && !allowPartial(r) {
		shardFailure(w, tenant, "scatter-gather", fails)
		return nil, nil, fails, false
	}
	if len(envs) == 0 {
		shardFailure(w, tenant, "scatter-gather", fails)
		return nil, nil, fails, false
	}
	if len(fails) > 0 {
		c.ops.PartialQueries.Inc()
	}
	merged, d, err = MergeEnvelopes(envs)
	if err != nil {
		// Shards that disagree on shape or seed are a conflict, as on a
		// single server's /merge; anything else is the coordinator's fault.
		code := http.StatusInternalServerError
		if errors.Is(err, core.ErrIncompatible) {
			code = http.StatusConflict
		}
		httpError(w, code, "merge shards: %v", err)
		return nil, nil, fails, false
	}
	if _, projected := merged.(*registry.Projection); projected {
		c.ops.ProjectedGathers.Inc()
	}
	return merged, d, fails, true
}

// handleQuery answers the global query: every shard's envelope — or,
// from families that project the query, just the cells it reads —
// tree-merged, queried once through the merged type's own binding.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	query := familyQuery(r)
	merged, d, fails, ok := c.gatherMerged(w, r, tenant, r.PathValue("name"), query)
	if !ok {
		return
	}
	res, err := d.Bind.Query(merged, query)
	if err != nil {
		httpError(w, http.StatusBadRequest, "query: %v", err)
		return
	}
	res["shards_merged"] = c.ring.N() - len(fails)
	if tenant != "" {
		res["tenant"] = tenant
	}
	if len(fails) > 0 {
		res["partial"] = true
		res["failed_shards"] = fails
	}
	writeJSON(w, http.StatusOK, res)
}

// handleSnapshot serves the merged global envelope — byte-compatible
// with a single sketchd snapshot, so it feeds Merge, sketchcli
// inspect, or another cluster.
func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	merged, _, fails, ok := c.gatherMerged(w, r, tenantOf(r), r.PathValue("name"), nil)
	if !ok {
		return
	}
	// Marshalled into a pooled buffer, which goes back only once Write
	// below has returned.
	bp := c.envPool.Get().(*[]byte)
	defer c.envPool.Put(bp)
	env, _, err := registry.AppendMarshal((*bp)[:0], merged, false)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "marshal: %v", err)
		return
	}
	*bp = env // keep what the marshal grew
	w.Header().Set("Content-Type", "application/octet-stream")
	// An explicit length, as on the shards: past net/http's 2 KB sniff
	// buffer the reply would otherwise go out chunked, and the reader
	// could not size its buffer once.
	w.Header().Set("Content-Length", strconv.Itoa(len(env)))
	if len(fails) > 0 {
		w.Header().Set("X-Cluster-Partial", "true")
	}
	w.WriteHeader(http.StatusOK)
	w.Write(env)
}

func (c *Coordinator) handleDelete(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	name := r.PathValue("name")
	fails := c.failures(c.scatter(func(_ int, cl *client.Client) error {
		return c.callShard(func() error { return cl.Tenant(tenant).Delete(name) })
	}))
	if len(fails) > 0 {
		shardFailure(w, tenant, "delete", fails)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// ShardStatus is one shard's row in the cluster status.
type ShardStatus struct {
	Shard  string                 `json:"shard"`
	OK     bool                   `json:"ok"`
	Error  string                 `json:"error,omitempty"`
	Status *server.StatusResponse `json:"status,omitempty"`
}

// ClusterStatus is GET /v1/cluster/status: ring shape, per-shard
// health, and the coordinator's own counters.
type ClusterStatus struct {
	Shards       []ShardStatus         `json:"shards"`
	VirtualNodes int                   `json:"virtual_nodes"`
	Healthy      int                   `json:"healthy"`
	Coordinator  CoordCountersSnapshot `json:"coordinator"`
	UptimeS      float64               `json:"uptime_s"`
}

// Status polls every shard and assembles the cluster view.
func (c *Coordinator) Status() ClusterStatus {
	rows := make([]ShardStatus, len(c.shards))
	// A status poll is one plain call per shard: no retries, not counted
	// as shard work.
	errs := c.scatter(func(i int, cl *client.Client) error {
		rows[i].Shard = c.shards[i]
		st, err := cl.Status()
		if err != nil {
			rows[i].Error = err.Error()
			return err
		}
		rows[i].OK, rows[i].Status = true, &st
		return nil
	})
	healthy := 0
	for _, err := range errs {
		if err == nil {
			healthy++
		}
	}
	vn := len(c.ring.points) / len(c.shards)
	return ClusterStatus{
		Shards:       rows,
		VirtualNodes: vn,
		Healthy:      healthy,
		Coordinator:  c.ops.snapshot(),
		UptimeS:      time.Since(c.start).Seconds(),
	}
}

func (c *Coordinator) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"role":     "coordinator",
		"shards":   c.shards,
		"uptime_s": time.Since(c.start).Seconds(),
		"ops":      c.ops.snapshot(),
	})
}
