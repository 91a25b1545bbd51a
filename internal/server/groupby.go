package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/durable"
	typereg "repro/internal/registry"
)

// Group-by ingest (Gigascope-style GROUP BY over a stream): one POST
// fans an event batch into a sketch per group, creating missing group
// sketches on the fly from a shared CreateRequest template, and logs
// the whole fan-out as ONE WAL record. Body lines are
//
//	group<TAB>item[<TAB>weight...]
//
// — the first tab splits the group key from the normal ingest line the
// group's sketch receives. The sketch for group g is named Prefix+g.
//
// Query parameters: type (required), prefix, seed, ttl_s, and the
// CreateRequest convenience fields (p, shards, width, depth, m, k, n,
// fpr) as numbers; param.<name>=<v> addresses the full descriptor
// schema. The WAL record body is the JSON GroupBySpec line + '\n' +
// the raw batch, so replay re-runs the same fan-out deterministically
// (group keys are applied in sorted order on both paths).
type GroupBySpec struct {
	Create CreateRequest `json:"create"`
	Prefix string        `json:"prefix,omitempty"`
}

// groupSpecFromQuery builds the group-by template from URL parameters.
func groupSpecFromQuery(q url.Values) (GroupBySpec, error) {
	var spec GroupBySpec
	var err error
	spec.Prefix = q.Get("prefix")
	c := &spec.Create
	c.Type = q.Get("type")
	if c.Type == "" {
		return spec, fmt.Errorf("groupby: ?type= is required")
	}
	num := func(key string) float64 {
		v := q.Get(key)
		if v == "" || err != nil {
			return 0
		}
		f, perr := strconv.ParseFloat(v, 64)
		if perr != nil {
			err = fmt.Errorf("groupby: bad %s=%q", key, v)
		}
		return f
	}
	c.Seed = uint64(num("seed"))
	c.P = uint8(num("p"))
	c.Width = int(num("width"))
	c.Depth = int(num("depth"))
	c.M = uint64(num("m"))
	c.K = int(num("k"))
	c.NItems = uint64(num("n"))
	c.FPR = num("fpr")
	c.TTLSeconds = int64(num("ttl_s"))
	for key := range q {
		name, ok := strings.CutPrefix(key, "param.")
		if !ok {
			continue
		}
		if c.Params == nil {
			c.Params = map[string]float64{}
		}
		c.Params[name] = num(key)
	}
	return spec, err
}

// splitGroups parses a group-by batch into an ingest body per group —
// each line's item and a newline — with the group keys sorted (the
// canonical apply order). An empty item is a blank line of its group's
// body, which its ingest skips.
func splitGroups(body []byte) (groups map[string][]byte, names []string, total int, err error) {
	groups = map[string][]byte{}
	for len(body) > 0 {
		var line []byte
		if line, body = typereg.CutLine(body); len(line) == 0 {
			continue
		}
		tab := bytes.IndexByte(line, '\t')
		if tab <= 0 {
			return nil, nil, 0, fmt.Errorf("groupby: line %d missing group<TAB>item", total+1)
		}
		g := string(line[:tab])
		groups[g] = append(append(groups[g], line[tab+1:]...), '\n')
		total++
	}
	names = make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	return groups, names, total, nil
}

// fanOut applies a group-by batch to ts, the one body the live handler
// and replay share. In sorted group order it resolves each group's
// sketch (created from the template when missing; persisted by the
// OpGroupBy record itself, not an individual create), claims it, and
// feeds it its items, stopping at the first group that fails — so a
// live fan-out and its replay stop at the same place. applied counts
// the groups fed: the first applied of the entries claimed.
func (ts *tenantState) fanOut(spec GroupBySpec, groups map[string][]byte, names []string, claim hold, buffered bool) (applied, created int, items uint64, err error) {
	for _, g := range names {
		full := spec.Prefix + g
		ne, _ := ts.reg.get(full)
		fresh := ne == nil
		if fresh {
			if ne, err = ts.create(full, spec.Create, nil, claim, buffered); errors.Is(err, ErrExists) {
				fresh = false // lost a create race: use the winner
				ne, err = ts.reg.get(full)
			}
			if err != nil {
				return applied, created, items, err
			}
		}
		if fresh {
			created++
		} else if !claim(ne) {
			continue
		}
		var n int
		if n, err = ne.entry.Ingest(groups[g]); err != nil {
			return applied, created, items, fmt.Errorf("group %q: %w", g, err)
		}
		ne.adds.Add(uint64(n))
		items += uint64(n)
		applied++
	}
	return applied, created, items, nil
}

func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	tenant := TenantOf(r)
	if !validTenantName(tenant) {
		HTTPError(w, http.StatusBadRequest, "invalid tenant name %q", tenant)
		return
	}
	spec, err := groupSpecFromQuery(r.URL.Query())
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Create.TTLSeconds > 0 && spec.Create.CreatedUnix == 0 {
		spec.Create.CreatedUnix = time.Now().Unix()
	}
	// Under -salt-seeds a seedless template derives its seed from
	// (tenant, prefix): every group sketch of one fan-out family shares
	// a hash function (they must — one template, one WAL record), but
	// families and tenants stop sharing randomness with each other. The
	// stamped spec is what the WAL record carries, so replay recreates
	// identical seeds.
	s.applySaltSeed(tenant, "groupby:"+spec.Prefix, &spec.Create)
	// Validate the template once up front so a bad spec rejects the
	// batch before any group sketch exists.
	probe, err := NewEntry(spec.Create)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	probe.Close()
	// The WAL record body is the spec line, then the raw batch read in
	// behind it.
	head, err := json.Marshal(spec)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	record := make([]byte, 0, len(head)+2+int(min(max(r.ContentLength, 0), MaxBodyBytes)))
	record, ok := ReadBody(w, r, append(append(record, head...), '\n'))
	if !ok {
		return
	}
	body := record[len(head)+1:]
	groups, names, total, err := splitGroups(body)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if total == 0 {
		HTTPError(w, http.StatusBadRequest, "groupby: empty batch")
		return
	}

	ts := s.tenantOrCreate(tenant)
	newGroups := 0
	for _, g := range names {
		if _, gerr := ts.reg.get(spec.Prefix + g); gerr != nil {
			newGroups++
		}
	}
	if err := s.admitCreate(ts, newGroups); err != nil {
		HTTPError(w, http.StatusTooManyRequests, "%v", err)
		return
	}

	// Apply every group, then log ONE record covering the whole call.
	// The touched entries are claimed in sorted-name order (concurrent
	// group-bys take the same order; single-sketch paths hold one claim
	// at a time — no cycles), so apply + one append + LSN bookkeeping is
	// atomic across the batch exactly as it is per sketch on the
	// single-name paths. On a mid-batch failure the record is still
	// logged: replay runs the same fanOut, stops at the same group, and
	// recovery stays byte-exact.
	var created int
	var added uint64
	var applyErr error
	s.logged(ts, durable.OpGroupBy, spec.Prefix, record, func(claim hold) (applied int, _ error) {
		applied, created, added, applyErr = ts.fanOut(spec, groups, names, claim, s.bufferedIngest)
		return applied, nil
	})
	ts.adds.Add(added)
	s.ops.Adds.Add(added)
	s.ops.AddBatches.Inc()
	s.ops.BatchBytes.Add(uint64(len(body)))
	if applyErr != nil {
		HTTPError(w, http.StatusBadRequest, "%v (groups before it were applied and logged)", applyErr)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"tenant":  tenant,
		"groups":  len(names),
		"created": created,
		"added":   added,
	})
}

// replayGroupBy re-runs a logged group-by fan-out during recovery,
// leaving alone any group whose sketch already holds the record
// (snapshot-restored with LastLSN >= rec.LSN). A failure is surfaced so
// recovery logs it; the groups before it stand, as on the pre-crash
// server.
func replayGroupBy(ts *tenantState, rec durable.Record, buffered bool) error {
	nl := bytes.IndexByte(rec.Body, '\n')
	if nl < 0 {
		return fmt.Errorf("groupby record: missing spec line")
	}
	var spec GroupBySpec
	if err := json.Unmarshal(rec.Body[:nl], &spec); err != nil {
		return fmt.Errorf("groupby spec: %w", err)
	}
	groups, names, _, err := splitGroups(rec.Body[nl+1:])
	if err != nil {
		return err
	}
	var held []*namedEntry
	applied, _, _, err := ts.fanOut(spec, groups, names, func(ne *namedEntry) bool {
		if rec.LSN <= ne.lastLSN {
			return false
		}
		held = append(held, ne)
		return true
	}, buffered)
	for _, ne := range held[:applied] {
		ne.lastLSN = rec.LSN
	}
	return err
}
