package server

// Multi-tenant namespace tests: isolation (same name in two tenants
// never collides, cross-tenant lookups 404), list pagination, quota
// 429s, TTL eviction surviving kill-9 byte-identically, group-by
// ingest recovery, and replay of legacy version-1 DUR1 logs.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
)

// queryEstimate returns the sketch's estimate rounded to the nearest
// integer — at these tiny cardinalities the HLL estimator is exact up
// to float noise.
func queryEstimate(t *testing.T, base, path string) float64 {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(do(t, "GET", base+path, "").ok(t), &doc); err != nil {
		t.Fatalf("query %s: %v", path, err)
	}
	est, ok := doc["estimate"].(float64)
	if !ok {
		t.Fatalf("query %s: no estimate in %v", path, doc)
	}
	return math.Round(est)
}

func TestTenantIsolation(t *testing.T) {
	ts := serveLoop(t, New().Handler(), nil)

	// The same sketch name in three namespaces: default (legacy path),
	// tenant a, tenant b. Same name, independent state.
	do(t, "POST", ts.URL+"/v1/sketch/users", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts.URL+"/v1/t/a/sketch/users", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts.URL+"/v1/t/b/sketch/users", `{"type":"hll"}`).ok(t)

	do(t, "POST", ts.URL+"/v1/sketch/users/add", "d1\nd2").ok(t)
	do(t, "POST", ts.URL+"/v1/t/a/sketch/users/add", "a1\na2\na3").ok(t)
	do(t, "POST", ts.URL+"/v1/t/b/sketch/users/add", "b1").ok(t)

	if got := queryEstimate(t, ts.URL, "/v1/sketch/users/query"); got != 2 {
		t.Errorf("default tenant estimate = %v, want 2", got)
	}
	if got := queryEstimate(t, ts.URL, "/v1/t/a/sketch/users/query"); got != 3 {
		t.Errorf("tenant a estimate = %v, want 3", got)
	}
	if got := queryEstimate(t, ts.URL, "/v1/t/b/sketch/users/query"); got != 1 {
		t.Errorf("tenant b estimate = %v, want 1", got)
	}

	// The header addresses the same namespace as the path.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/sketch/users/query", nil)
	req.Header.Set(TenantHeader, "a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if est := math.Round(doc["estimate"].(float64)); est != 3 {
		t.Errorf("header-scoped estimate = %v, want 3", est)
	}

	// A sketch that exists only in tenant a is invisible elsewhere.
	do(t, "POST", ts.URL+"/v1/t/a/sketch/only-a", `{"type":"hll"}`).ok(t)
	for _, path := range []string{
		"/v1/sketch/only-a/query",
		"/v1/t/b/sketch/only-a/query",
		"/v1/t/missing/sketch/only-a/query",
	} {
		if code := do(t, "GET", ts.URL+path, "").code; code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}

	// Deleting tenant a's sketch leaves b's and default's intact.
	do(t, "DELETE", ts.URL+"/v1/t/a/sketch/users", "").ok(t)
	if code := do(t, "GET", ts.URL+"/v1/t/a/sketch/users/query", "").code; code != http.StatusNotFound {
		t.Errorf("deleted tenant-a sketch still answers: %d", code)
	}
	if got := queryEstimate(t, ts.URL, "/v1/t/b/sketch/users/query"); got != 1 {
		t.Errorf("tenant b estimate after a's delete = %v, want 1", got)
	}
	if got := queryEstimate(t, ts.URL, "/v1/sketch/users/query"); got != 2 {
		t.Errorf("default estimate after a's delete = %v, want 2", got)
	}

	// Bad tenant names reject rather than silently creating namespaces.
	if code := do(t, "POST", ts.URL+"/v1/t/bad%2Fname/sketch/x", `{"type":"hll"}`).code; code != http.StatusBadRequest {
		t.Errorf("create under invalid tenant = %d, want 400", code)
	}
}

func TestTenantListPagination(t *testing.T) {
	ts := serveLoop(t, New().Handler(), nil)
	for i := 0; i < 25; i++ {
		do(t, "POST", ts.URL+fmt.Sprintf("/v1/t/pag/sketch/p-%02d", i), `{"type":"hll"}`).ok(t)
	}
	do(t, "POST", ts.URL+"/v1/t/pag/sketch/q-other", `{"type":"hll"}`).ok(t)

	type page struct {
		Sketches []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"sketches"`
		Truncated  bool   `json:"truncated"`
		NextCursor string `json:"next_cursor"`
	}
	var names []string
	cursor, pages := "", 0
	for {
		u := ts.URL + "/v1/t/pag/sketch?prefix=p-&limit=10"
		if cursor != "" {
			u += "&cursor=" + cursor
		}
		var pg page
		if err := json.Unmarshal(do(t, "GET", u, "").ok(t), &pg); err != nil {
			t.Fatal(err)
		}
		pages++
		for _, sk := range pg.Sketches {
			names = append(names, sk.Name)
		}
		if !pg.Truncated {
			break
		}
		if pg.NextCursor == "" {
			t.Fatal("truncated page without next_cursor")
		}
		cursor = pg.NextCursor
	}
	if pages != 3 || len(names) != 25 {
		t.Fatalf("paged %d names over %d pages, want 25 over 3", len(names), pages)
	}
	for i, name := range names {
		if want := fmt.Sprintf("p-%02d", i); name != want {
			t.Fatalf("names[%d] = %q, want %q (pages must be sorted, gap-free)", i, name, want)
		}
	}

	// The prefix filter excluded q-other; an unfiltered list includes it.
	var all page
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/t/pag/sketch", "").ok(t), &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Sketches) != 26 || all.Truncated {
		t.Errorf("unfiltered list: %d sketches (truncated=%v), want 26 untruncated", len(all.Sketches), all.Truncated)
	}
}

func TestTenantQuota429(t *testing.T) {
	s := New()
	ts := serveLoop(t, s.Handler(), nil)
	s.SetTenantQuota(TenantQuota{MaxSketches: 2})

	do(t, "POST", ts.URL+"/v1/t/capped/sketch/s1", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts.URL+"/v1/t/capped/sketch/s2", `{"type":"hll"}`).ok(t)
	if r := do(t, "POST", ts.URL+"/v1/t/capped/sketch/s3", `{"type":"hll"}`); r.code != http.StatusTooManyRequests {
		t.Errorf("create over sketch quota = %d (%s), want 429", r.code, r.body)
	}
	// The breach is per tenant: another namespace still creates freely.
	do(t, "POST", ts.URL+"/v1/t/other/sketch/s1", `{"type":"hll"}`).ok(t)
	// And the capped tenant's existing sketches still serve.
	do(t, "POST", ts.URL+"/v1/t/capped/sketch/s1/add", "x\ny").ok(t)

	// Byte quota: the resident gauge refreshes on statsz, after which
	// further ingest into an over-quota tenant answers 429. The cap is
	// chosen between one sketch's resident size and two — "capped"
	// (two sketches) breaches it, "other" (one sketch) does not: the
	// quota binds per tenant, so one tenant's breach never throttles
	// another.
	do(t, "GET", ts.URL+"/debug/statsz", "").ok(t)
	var sz Statsz
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/debug/statsz", "").ok(t), &sz); err != nil {
		t.Fatal(err)
	}
	var one int64
	for _, row := range sz.Tenants {
		if row.Tenant == "other" {
			one = row.ResidentBytes
		}
	}
	if one <= 0 {
		t.Fatalf("no resident gauge for tenant other: %+v", sz.Tenants)
	}
	s.SetTenantQuota(TenantQuota{MaxBytes: one + one/2})
	if r := do(t, "POST", ts.URL+"/v1/t/capped/sketch/s1/add", "z"); r.code != http.StatusTooManyRequests {
		t.Errorf("ingest over byte quota = %d (%s), want 429", r.code, r.body)
	}
	// Reads are never quota-gated.
	do(t, "GET", ts.URL+"/v1/t/capped/sketch/s1/query", "").ok(t)
	// Other tenants' ingest is untouched by the capped tenant's breach.
	do(t, "POST", ts.URL+"/v1/t/other/sketch/s1/add", "ok").ok(t)
}

// TestTTLEvictionSurvivesKill9 drives the satellite's core claim: a
// WAL-logged TTL eviction is as durable as any delete. The sweep runs,
// the server dies without ceremony, and recovery must keep the evicted
// sketch dead while serving the survivor byte-identically.
func TestTTLEvictionSurvivesKill9(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})

	// created_unix pinned in the past: the TTL deadline has long
	// passed, so the sweep below is deterministic.
	do(t, "POST", ts1.URL+"/v1/t/ads/sketch/ephemeral", `{"type":"hll","ttl_s":1,"created_unix":1000}`).ok(t)
	do(t, "POST", ts1.URL+"/v1/t/ads/sketch/ephemeral/add", "gone-1\ngone-2").ok(t)
	do(t, "POST", ts1.URL+"/v1/t/ads/sketch/keeper", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts1.URL+"/v1/t/ads/sketch/keeper/add", "kept-1\nkept-2\nkept-3").ok(t)

	if n := s1.SweepExpired(time.Now()); n != 1 {
		t.Fatalf("SweepExpired evicted %d sketches, want 1", n)
	}
	if code := do(t, "GET", ts1.URL+"/v1/t/ads/sketch/ephemeral/query", "").code; code != http.StatusNotFound {
		t.Fatalf("evicted sketch still answers: %d", code)
	}
	wantSnap := do(t, "GET", ts1.URL+"/v1/t/ads/sketch/keeper/snapshot", "").ok(t)

	if err := s1.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.dur.Kill()

	s2, ts2, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	if code := do(t, "GET", ts2.URL+"/v1/t/ads/sketch/ephemeral/query", "").code; code != http.StatusNotFound {
		t.Errorf("evicted sketch resurrected by recovery: %d", code)
	}
	gotSnap := do(t, "GET", ts2.URL+"/v1/t/ads/sketch/keeper/snapshot", "").ok(t)
	if string(gotSnap) != string(wantSnap) {
		t.Errorf("survivor snapshot differs after recovery: %d vs %d bytes", len(gotSnap), len(wantSnap))
	}

	// A restored TTL sketch whose deadline passed during downtime is
	// not resurrected forever: the revived server's sweep evicts it.
	do(t, "POST", ts2.URL+"/v1/t/ads/sketch/late", `{"type":"hll","ttl_s":1,"created_unix":1000}`).ok(t)
	if n := s2.SweepExpired(time.Now()); n != 1 {
		t.Errorf("post-recovery sweep evicted %d, want 1", n)
	}
}

func TestGroupByIngestAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})

	lsnBefore := s1.dur.Status().WALLSN
	body := "web\tu1\nweb\tu2\nmobile\tu3\nweb\tu1\nmobile\tu4\ntv\tu5"
	ack := do(t, "POST", ts1.URL+"/v1/t/ads/ingest/groupby?type=hll&prefix=ch-", body).ok(t)
	var res struct {
		Tenant  string `json:"tenant"`
		Groups  int    `json:"groups"`
		Created int    `json:"created"`
		Added   uint64 `json:"added"`
	}
	if err := json.Unmarshal(ack, &res); err != nil {
		t.Fatal(err)
	}
	if res.Groups != 3 || res.Created != 3 || res.Added != 6 || res.Tenant != "ads" {
		t.Fatalf("groupby ack = %+v, want 3 groups, 3 created, 6 added in ads", res)
	}
	// The whole fan-out — three creates plus six adds — is one WAL record.
	if lsnAfter := s1.dur.Status().WALLSN; lsnAfter != lsnBefore+1 {
		t.Errorf("groupby wrote %d WAL records, want 1", lsnAfter-lsnBefore)
	}
	if got := queryEstimate(t, ts1.URL, "/v1/t/ads/sketch/ch-web/query"); got != 2 {
		t.Errorf("ch-web estimate = %v, want 2 (u1 deduplicated)", got)
	}

	// A second call hits existing group sketches (created=0) and mixes
	// in a new group.
	ack2 := do(t, "POST", ts1.URL+"/v1/t/ads/ingest/groupby?type=hll&prefix=ch-", "web\tu9\nprint\tu10").ok(t)
	if err := json.Unmarshal(ack2, &res); err != nil {
		t.Fatal(err)
	}
	if res.Groups != 2 || res.Created != 1 {
		t.Fatalf("second groupby ack = %+v, want 2 groups, 1 created", res)
	}

	snaps := map[string][]byte{}
	for _, g := range []string{"ch-web", "ch-mobile", "ch-tv", "ch-print"} {
		snaps[g] = do(t, "GET", ts1.URL+"/v1/t/ads/sketch/"+g+"/snapshot", "").ok(t)
	}

	if err := s1.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.dur.Kill()

	_, ts2, stats := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	if stats.RecordsReplayed == 0 {
		t.Fatal("recovery replayed no records; groupby records were lost")
	}
	for g, want := range snaps {
		got := do(t, "GET", ts2.URL+"/v1/t/ads/sketch/"+g+"/snapshot", "").ok(t)
		if string(got) != string(want) {
			t.Errorf("%s snapshot differs after groupby replay: %d vs %d bytes", g, len(got), len(want))
		}
	}
}

// TestLegacyV1LogReplay fabricates a pre-tenant version-1 DUR1 log and
// recovers a server over it: old logs must keep replaying, with every
// record landing in the default namespace.
func TestLegacyV1LogReplay(t *testing.T) {
	dir := t.TempDir()
	req := []byte(`{"type":"hll"}`)
	log := durable.WALHeaderV1()
	log = durable.AppendRecordV1(log, durable.Record{LSN: 1, Op: durable.OpCreate, Name: "legacy", Body: req})
	log = durable.AppendRecordV1(log, durable.Record{LSN: 2, Op: durable.OpIngest, Name: "legacy", Body: []byte("old-1\nold-2")})
	log = durable.AppendRecordV1(log, durable.Record{LSN: 3, Op: durable.OpIngest, Name: "legacy", Body: []byte("old-3")})
	walPath := filepath.Join(dir, "wal-00000000000000000001.log")
	if err := os.WriteFile(walPath, log, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts, stats := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	if stats.RecordsReplayed != 3 {
		t.Fatalf("replayed %d records from v1 log, want 3", stats.RecordsReplayed)
	}
	// The legacy sketch serves on the legacy path — i.e. the default
	// tenant — and only there.
	if got := queryEstimate(t, ts.URL, "/v1/sketch/legacy/query"); got != 3 {
		t.Errorf("legacy sketch estimate = %v, want 3", got)
	}
	if got := queryEstimate(t, ts.URL, "/v1/t/default/sketch/legacy/query"); got != 3 {
		t.Errorf("legacy sketch via /v1/t/default = %v, want 3", got)
	}
	if code := do(t, "GET", ts.URL+"/v1/t/other/sketch/legacy/query", "").code; code != http.StatusNotFound {
		t.Errorf("legacy sketch leaked into tenant other: %d", code)
	}

	// New writes over the recovered state land in today's v2 log and
	// coexist with the v1 history on the next recovery.
	do(t, "POST", ts.URL+"/v1/sketch/legacy/add", "new-4").ok(t)
	do(t, "POST", ts.URL+"/v1/t/fresh/sketch/modern", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts.URL+"/v1/t/fresh/sketch/modern/add", "m-1").ok(t)
	if got := queryEstimate(t, ts.URL, "/v1/sketch/legacy/query"); got != 4 {
		t.Errorf("legacy sketch after mixed-version writes = %v, want 4", got)
	}
}

func TestStatusReportsTenants(t *testing.T) {
	ts := serveLoop(t, New().Handler(), nil)
	do(t, "POST", ts.URL+"/v1/sketch/d1", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts.URL+"/v1/t/acme/sketch/a1", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts.URL+"/v1/t/acme/sketch/a2", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts.URL+"/v1/t/acme/sketch/a1/add", "x\ny\nz").ok(t)

	var st StatusResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/status", "").ok(t), &st); err != nil {
		t.Fatal(err)
	}
	if st.Sketches != 3 {
		t.Errorf("status sketches = %d, want 3 across tenants", st.Sketches)
	}
	byName := map[string]TenantStat{}
	for _, row := range st.Tenants {
		byName[row.Tenant] = row
	}
	if byName["acme"].Sketches != 2 || byName["default"].Sketches != 1 {
		t.Errorf("tenant rows = %+v, want acme:2 default:1", byName)
	}
	if byName["acme"].Adds != 3 {
		t.Errorf("acme adds = %d, want 3", byName["acme"].Adds)
	}
	if byName["acme"].ResidentBytes <= 0 {
		t.Errorf("acme resident_bytes = %d, want > 0", byName["acme"].ResidentBytes)
	}
}
