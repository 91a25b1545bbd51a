package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/durable"
)

// Robustdistinct is the one family whose QUERIES mutate state (the
// switching defense burns copies as the revealed output drifts), and
// only ingest is WAL-logged — so the defense's burn-down is durable up
// to the last snapshot, and replayed ingest reconstructs everything
// after it. This test pins the contract: a query-mutated state
// captured by a snapshot plus a WAL tail of further ingest recovers
// byte-identically after kill -9.
func TestRobustDistinctKill9ByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})

	do(t, "POST", ts1.URL+"/v1/sketch/rd",
		`{"type":"robustdistinct","p":10,"params":{"lambda":6,"rho":0.1,"q":0.5}}`).ok(t)

	do(t, "POST", ts1.URL+"/v1/sketch/rd/add", "alpha\nbeta\ngamma\ndelta").ok(t)

	// Burn switching state with queries, then snapshot: the mutated
	// cur/last must ride the snapshot.
	q1 := do(t, "GET", ts1.URL+"/v1/sketch/rd/query", "").ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/rd/add", "epsilon\nzeta\neta\ntheta\niota\nkappa").ok(t)
	do(t, "GET", ts1.URL+"/v1/sketch/rd/query", "").ok(t)
	if err := s1.dur.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}

	// WAL tail after the snapshot: ingest only (no further queries, so
	// the pre-kill snapshot fetch is the exact recovery target).
	do(t, "POST", ts1.URL+"/v1/sketch/rd/add", "lambda\nmu\nnu\nxi").ok(t)
	want := do(t, "GET", ts1.URL+"/v1/sketch/rd/snapshot", "").ok(t)

	if err := s1.dur.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	ts1.Close()
	s1.dur.Kill()

	_, ts2, stats := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	if stats.SketchesLoaded != 1 {
		t.Fatalf("recovered %d sketches, want 1", stats.SketchesLoaded)
	}
	if stats.RecordsReplayed != 1 {
		t.Fatalf("replayed %d WAL records, want 1 (the post-snapshot ingest)", stats.RecordsReplayed)
	}
	got := do(t, "GET", ts2.URL+"/v1/sketch/rd/snapshot", "").ok(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs: %d bytes vs %d", len(got), len(want))
	}

	// The recovered defense still answers, with its gauges intact.
	var doc map[string]any
	if err := json.Unmarshal(do(t, "GET", ts2.URL+"/v1/sketch/rd/query", "").ok(t), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["copies"].(float64) != 6 {
		t.Errorf("recovered copies = %v, want 6", doc["copies"])
	}
	var first map[string]any
	if err := json.Unmarshal(q1, &first); err != nil {
		t.Fatal(err)
	}
	if doc["copies_used"].(float64) < first["copies_used"].(float64) {
		t.Errorf("burned copies regressed across recovery: %v -> %v",
			first["copies_used"], doc["copies_used"])
	}
}
