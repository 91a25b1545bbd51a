package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// The coordinator serves the operation table a single sketchd does
// (server.Ops), so every existing client (sketchcli, the loadgen, curl
// scripts) points at a cluster unchanged. What it does for an operation
// is the row's cluster meaning: add and merge go whole to one shard in
// rotation, create and delete are broadcast, query and snapshot gather
// and merge, types and status are answered locally, and the rows with
// no cluster-wide meaning (list, overlap, and group-by ingest, whose
// one-WAL-record atomicity is a per-shard property) answer 501 naming
// the operation as shard-local — point their callers at a shard. So
// does a query of a family whose release changes its state
// (registry.Descriptor.QueryMutates), named by family.
//
// Every sketch route also exists under its tenant twin (or with the
// X-Sketch-Tenant header), forwarding to the same tenant namespace on
// the shards; the default tenant forwards over the plain shard paths.
//
// Reads take ?allow_partial=true to accept a degraded answer when a
// shard is down; the response then carries "partial": true plus the
// failed shard names, and every error or partial payload for a
// tenant-scoped call carries the tenant label. Without it, a shard
// failure is a 503 naming the shard — a silently incomplete merge is
// the one outcome the cluster must never produce.

func (c *Coordinator) buildMux() {
	c.mux = http.NewServeMux()
	server.Mount(c.mux, true, map[string]http.HandlerFunc{
		"create": c.broadcast("create"), "delete": c.broadcast("delete"),
		"add": c.handleAdd, "merge": c.handleMerge, "query": c.handleQuery, "snapshot": c.handleSnapshot,
		"types": server.HandleTypes, "status": c.handleStatus, "cluster-status": c.handleClusterStatus,
	})
}

// ServeHTTP makes the coordinator an http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// labeled adds the tenant to the reply of a tenant-scoped call.
func labeled(doc map[string]any, tenant string) map[string]any {
	if tenant != server.DefaultTenant {
		doc["tenant"] = tenant
	}
	return doc
}

// shardFailure writes the error a failed fan-out produces: the failed
// shards are named in both the error text and a structured field, and
// tenant-scoped calls carry the tenant label so a multi-tenant operator
// can attribute the degradation. One rule serves every cluster meaning.
// When every failed shard answered 4xx — no such sketch, a malformed
// batch, a duplicate name, a query-budget or tenant-QPS throttle — the
// coordinator is not degraded, the request is at fault: the first such
// status passes through, with the largest shard Retry-After, so the
// client fixes or paces the request instead of failing over. A 503 is
// for a failure that was transport-level or 5xx.
func shardFailure(w http.ResponseWriter, tenant, op string, fails []ShardError) {
	names := make([]string, len(fails))
	status := fails[0].Code
	var retryAfter int64
	for i, f := range fails {
		names[i] = f.Shard
		if f.Code < 400 || f.Code > 499 {
			status = http.StatusServiceUnavailable
		}
		retryAfter = max(retryAfter, f.RetryAfterS)
	}
	if status != http.StatusServiceUnavailable && retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfter, 10))
	}
	server.WriteJSON(w, status, labeled(map[string]any{
		"error":         fmt.Sprintf("%s failed on shard(s) %v", op, names),
		"failed_shards": fails,
	}, tenant))
}

func allowPartial(r *http.Request) bool {
	return r.URL.Query().Get("allow_partial") == "true"
}

// broadcast forwards a request to every shard as it stands — a cluster
// sketch exists everywhere or nowhere. When a create fails on some
// shards the ones that took it are rolled back (best effort), so a retry
// does not hit already-exists conflicts. A delete drops the sketch's
// gather slots.
func (c *Coordinator) broadcast(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, name := server.TenantOf(r), r.PathValue("name")
		body, release, ok := c.bodies.Read(w, r)
		if !ok {
			return
		}
		defer release() // every shard call, retries included, has returned by then
		errs := c.scatter(func(_ int, cl *client.Client) error {
			return c.callShard(func() error {
				return cl.Tenant(tenant).Forward(op, name, r.Header.Get("Content-Type"), body)
			})
		})
		if op == "delete" {
			c.slots.drop(tenant, name)
		}
		if fails := c.failures(errs); len(fails) > 0 {
			for i, err := range errs {
				if op == "create" && err == nil {
					go c.callShard(func() error { return c.clients[i].Tenant(tenant).Delete(name) })
				}
			}
			shardFailure(w, tenant, op, fails)
			return
		}
		if op == "create" {
			server.WriteJSON(w, http.StatusCreated, labeled(map[string]any{"name": name, "shards": len(c.shards)}, tenant))
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]any{"deleted": name})
	}
}

// handleAdd forwards the batch as it stands to the shard whose turn it
// is and relays that shard's count. A shard still failing after retries
// fails the request with the shard named, and the batch is then on no
// shard: it was validated and applied by one, or by none.
func (c *Coordinator) handleAdd(w http.ResponseWriter, r *http.Request) {
	tenant := server.TenantOf(r)
	body, release, ok := c.bodies.Read(w, r)
	if !ok {
		return
	}
	defer release() // the shard call, retries included, has returned by then
	c.ops.AddBatches.Inc()
	items, fails := c.FanOutAddTenant(tenant, r.PathValue("name"), body)
	if len(fails) > 0 {
		shardFailure(w, tenant, "add", fails)
		return
	}
	c.ops.Adds.Add(uint64(items))
	server.WriteJSON(w, http.StatusOK, map[string]any{"added": items})
}

// handleMerge is the same call: a peer envelope (or a GSKB bundle of
// them, forwarded as it stands) absorbed into one shard's partial
// summary is absorbed into the union every read gathers.
func (c *Coordinator) handleMerge(w http.ResponseWriter, r *http.Request) {
	tenant, name := server.TenantOf(r), r.PathValue("name")
	body, release, ok := c.bodies.Read(w, r)
	if !ok {
		return
	}
	defer release() // the shard call, retries included, has returned by then
	if fails := c.toOne(tenant, func(cl *client.Client) error { return cl.Merge(name, body) }); len(fails) > 0 {
		shardFailure(w, tenant, "merge", fails)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"merged": true})
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

// gathered is a read's merged state and what answering from it takes.
type gathered struct {
	merged  registry.Merged
	fails   []ShardError
	release func()   // lets go of the buffers merged aliases, once the read has answered from it
	fold    *foldBuf // the slot's held fold, when merged is it: a whole-state read every shard answered
	held    bool     // fold was held from an earlier read: every shard answered 304
}

// gatherMerged runs the scatter-gather + merge for a read; query is the
// one question the merged result will be asked (nil when the caller
// wants the whole state), which the shards may answer with a projection
// of it. A whole-state read goes through its gather slot
// (gatherCached), which may answer from the fold it holds, a projected
// one through pooled buffers (gatherPooled). The shard envelopes of a
// family that merges on the wire fold into the first of them, so the
// merged result aliases a buffer of the read or of the slot: the caller
// calls g.release once it has answered from it. When the read cannot be
// answered under the request's partial-failure policy, gatherMerged
// writes the error response itself and has released already.
func (c *Coordinator) gatherMerged(w http.ResponseWriter, r *http.Request, tenant, name string, query url.Values) (g gathered, ok bool) {
	c.ops.Queries.Inc()
	slim, err := server.WireSlim(r.URL.Query().Get("wire"))
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, "%v", err)
		return g, false
	}
	if forQuery := query.Encode(); forQuery == "" {
		g, err = c.gatherCached(tenant, name, slim, allowPartial(r))
	} else {
		var envs [][]byte
		envs, g.fails, g.release = c.gatherPooled(tenant, name, slim, forQuery)
		if mixedTags(envs) {
			// Only part of the fleet projected (shards that predate ?for=
			// ship full envelopes): the two forms do not merge, so read
			// every shard in full, once.
			g.release()
			c.ops.MixedRegathers.Inc()
			envs, g.fails, g.release = c.gatherPooled(tenant, name, slim, "")
		}
		g.merged, err = mergeArrived(envs, g.fails, allowPartial(r))
	}
	if errors.Is(err, errShardsMissing) {
		g.release()
		shardFailure(w, tenant, "scatter-gather", g.fails)
		return g, false
	}
	if len(g.fails) > 0 {
		c.ops.PartialQueries.Inc()
	}
	if err != nil {
		g.release()
		// Shards that disagree on shape or seed are a conflict, as on a
		// single server's /merge; anything else is the coordinator's fault.
		code := http.StatusInternalServerError
		if errors.Is(err, core.ErrIncompatible) {
			code = http.StatusConflict
		}
		server.HTTPError(w, code, "merge shards: %v", err)
		return g, false
	}
	switch {
	case g.merged.Wire():
		c.ops.WireMerges.Inc()
	case g.merged.Desc.Tag == core.TagProjection:
		c.ops.ProjectedGathers.Inc()
	}
	return g, true
}

// handleQuery answers the global query: every shard's envelope — or,
// from families that project the query, just the cells it reads —
// merged, and the one merged state queried through its type's own
// binding. The reply to a whole-state query of a held fold is rendered
// once, by the first read that asks, and kept with the fold
// (foldBuf.answer): a read every shard answered with 304 writes those
// bytes, decoding, asking and encoding nothing. Every read still asks
// every shard, so one answered from stored bytes is charged to every
// shard's query budget as any other. A family whose release changes its
// state (registry.Descriptor.QueryMutates) is refused as shard-local
// before anything is asked of the merge, so no reply of it is stored.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	tenant := server.TenantOf(r)
	query := familyQuery(r)
	g, ok := c.gatherMerged(w, r, tenant, r.PathValue("name"), query)
	if !ok {
		return
	}
	defer g.release() // a stored reply is written under the read's reference
	if d := g.merged.Desc; d.QueryMutates {
		server.HTTPError(w, http.StatusNotImplemented,
			"query of %s is shard-local: its release changes its state, which a merge of the shards' states does not carry; ask a shard", d.Name)
		return
	}
	code := http.StatusOK
	encode := func(buf *bytes.Buffer) error {
		inst, err := g.merged.Instance()
		if err != nil {
			code = http.StatusInternalServerError
			return fmt.Errorf("merge shards: %w", err)
		}
		res, err := g.merged.Desc.Bind.Query(inst, query)
		if err != nil {
			code = http.StatusBadRequest
			return fmt.Errorf("query: %w", err)
		}
		res["shards_merged"] = len(c.shards) - len(g.fails)
		if len(g.fails) > 0 {
			res["partial"] = true
			res["failed_shards"] = g.fails
		}
		json.NewEncoder(buf).Encode(labeled(res, tenant)) // as server.WriteJSON encodes it
		return nil
	}
	var reply []byte
	var err error
	if g.fold != nil {
		reply, err = g.fold.answer(encode)
	} else {
		var buf bytes.Buffer
		err = encode(&buf)
		reply = buf.Bytes()
	}
	if err != nil {
		server.HTTPError(w, code, "%v", err)
		return
	}
	if g.held {
		c.ops.HeldAnswers.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(reply)
}

// handleSnapshot serves the merged global envelope — byte-compatible
// with a single sketchd snapshot, so it feeds Merge, sketchcli
// inspect, or another cluster. For a family that merges on the wire the
// reply is the buffer the shard envelopes folded into — this read's, or
// the one its slot holds — written straight out; any other family's
// merged instance is marshalled into a pooled buffer. Either goes back
// to its pool only once Write has returned, and a held fold only once
// the slot has let go of it too.
func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	g, ok := c.gatherMerged(w, r, server.TenantOf(r), r.PathValue("name"), nil)
	if !ok {
		return
	}
	defer g.release()
	var env []byte
	if g.merged.Wire() {
		env, _ = g.merged.Envelope(nil) // the folded bytes themselves: no marshal, no error
	} else {
		fb := c.envPool.Get().(*foldBuf)
		defer c.envPool.Put(fb)
		var err error
		if env, err = g.merged.Envelope(fb.b[:0]); err != nil {
			server.HTTPError(w, http.StatusInternalServerError, "marshal: %v", err)
			return
		}
		fb.b = env // keep what the marshal grew
	}
	if len(g.fails) > 0 {
		w.Header().Set("X-Cluster-Partial", "true")
	}
	server.WriteEnvelope(w, env)
}

// ShardStatus is one shard's row in the cluster status.
type ShardStatus struct {
	Shard  string                 `json:"shard"`
	OK     bool                   `json:"ok"`
	Error  string                 `json:"error,omitempty"`
	Status *server.StatusResponse `json:"status,omitempty"`
}

// ClusterStatus is GET /v1/cluster/status: per-shard health and the
// coordinator's own counters.
type ClusterStatus struct {
	Shards      []ShardStatus         `json:"shards"`
	Healthy     int                   `json:"healthy"`
	Coordinator CoordCountersSnapshot `json:"coordinator"`
	UptimeS     float64               `json:"uptime_s"`
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
	return ClusterStatus{
		Shards:      rows,
		Healthy:     healthy,
		Coordinator: c.ops.snapshot(),
		UptimeS:     time.Since(c.start).Seconds(),
	}
}

func (c *Coordinator) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Status())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"role":     "coordinator",
		"shards":   c.shards,
		"uptime_s": time.Since(c.start).Seconds(),
		"ops":      c.ops.snapshot(),
	})
}
