package server

// Serving-mode tests for -concurrent-ingest=buffered: the registry's
// buffered (local-buffer/global-propagation) variants behind the same
// HTTP surface, including lifecycle (delete stops the propagator
// goroutine) and crash recovery with byte-identical restores.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/durable"
	typereg "repro/internal/registry"
)

// bufferedMode flips the process into buffered serving for one test,
// restoring the default afterwards. Tests in this package run
// sequentially, so the global switch cannot leak into parallel tests.
func bufferedMode(t *testing.T) {
	t.Helper()
	typereg.SetBufferedServing(true)
	t.Cleanup(func() { typereg.SetBufferedServing(false) })
}

// bufferedFamilies are the families with a buffered serving variant.
var bufferedFamilies = []struct {
	typ   string
	batch func(round int) string
}{
	{"hll", func(r int) string { return fmt.Sprintf("user-%d-a\nuser-%d-b\nuser-%d-c", r, r, r) }},
	{"countmin", func(r int) string { return fmt.Sprintf("hot\t3\ncold-%d", r) }},
	{"blockedbloom", func(r int) string { return fmt.Sprintf("member-%d\nmember-%d-x", r, r) }},
}

func TestBufferedServingLifecycle(t *testing.T) {
	bufferedMode(t)
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, f := range bufferedFamilies {
		mustDo(t, "POST", ts.URL+"/v1/sketch/buf-"+f.typ, fmt.Sprintf(`{"type":%q}`, f.typ))
		for round := 0; round < 3; round++ {
			mustDo(t, "POST", ts.URL+"/v1/sketch/buf-"+f.typ+"/add", f.batch(round))
		}
		// Snapshot syncs the buffered instance, so the query that
		// follows is exact (no writers in flight).
		mustDo(t, "GET", ts.URL+"/v1/sketch/buf-"+f.typ+"/snapshot", "")
		var q map[string]any
		if err := json.Unmarshal(mustDo(t, "GET", ts.URL+"/v1/sketch/buf-"+f.typ+"/query", ""), &q); err != nil {
			t.Fatalf("%s query: %v", f.typ, err)
		}
		if _, ok := q["staleness_bound"]; !ok {
			t.Errorf("%s: buffered query lacks staleness_bound: %v", f.typ, q)
		}
	}

	var q map[string]any
	if err := json.Unmarshal(mustDo(t, "GET", ts.URL+"/v1/sketch/buf-countmin/query?item=hot", ""), &q); err != nil {
		t.Fatal(err)
	}
	if est := q["estimate"].(float64); est < 9 {
		t.Errorf("countmin estimate for hot = %v, want >= 9 (3 rounds x weight 3)", est)
	}
	if err := json.Unmarshal(mustDo(t, "GET", ts.URL+"/v1/sketch/buf-blockedbloom/query?item=member-1", ""), &q); err != nil {
		t.Fatal(err)
	}
	if q["contains"] != true {
		t.Errorf("blockedbloom lost member-1: %v", q)
	}
}

// Deleting a buffered sketch must stop its propagator goroutine.
func TestBufferedDeleteStopsPropagator(t *testing.T) {
	bufferedMode(t)
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Measure relative to the fully created state so constant HTTP
	// client/server goroutines (keep-alive conns) cancel out: deleting
	// the 8 sketches must release their 8 propagator goroutines.
	const sketches = 8
	for i := 0; i < sketches; i++ {
		name := fmt.Sprintf("tmp-%d", i)
		mustDo(t, "POST", ts.URL+"/v1/sketch/"+name, `{"type":"countmin"}`)
		mustDo(t, "POST", ts.URL+"/v1/sketch/"+name+"/add", "x\ny")
	}
	withSketches := runtime.NumGoroutine()
	for i := 0; i < sketches; i++ {
		mustDo(t, "DELETE", ts.URL+fmt.Sprintf("/v1/sketch/tmp-%d", i), "")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= withSketches-sketches {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after deletes, want <= %d (had %d with %d buffered sketches live)",
				runtime.NumGoroutine(), withSketches-sketches, withSketches, sketches)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Crash recovery in buffered mode: same contract as the atomic path —
// recovered snapshots are byte-identical, because buffered marshal
// syncs (batch-end flush means every WAL-logged batch is handed off
// before its append) and restore merges into a fresh buffered global.
func TestBufferedCrashRecovery(t *testing.T) {
	bufferedMode(t)
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, dir, durable.Options{FsyncInterval: 0})

	for _, f := range bufferedFamilies {
		mustDo(t, "POST", ts1.URL+"/v1/sketch/bufdur-"+f.typ, fmt.Sprintf(`{"type":%q}`, f.typ))
		mustDo(t, "POST", ts1.URL+"/v1/sketch/bufdur-"+f.typ+"/add", f.batch(0))
	}
	if err := s1.dur.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	for round := 1; round <= 3; round++ {
		for _, f := range bufferedFamilies {
			mustDo(t, "POST", ts1.URL+"/v1/sketch/bufdur-"+f.typ+"/add", f.batch(round))
		}
	}
	want := map[string][]byte{}
	for _, f := range bufferedFamilies {
		want[f.typ] = mustDo(t, "GET", ts1.URL+"/v1/sketch/bufdur-"+f.typ+"/snapshot", "")
	}

	if err := s1.dur.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	ts1.Close()
	s1.dur.Kill()

	_, ts2, stats := durableServer(t, dir, durable.Options{FsyncInterval: 0})
	if stats.SketchesLoaded != len(bufferedFamilies) {
		t.Fatalf("recovered %d sketches, want %d (stats %+v)", stats.SketchesLoaded, len(bufferedFamilies), stats)
	}
	for _, f := range bufferedFamilies {
		got := mustDo(t, "GET", ts2.URL+"/v1/sketch/bufdur-"+f.typ+"/snapshot", "")
		if !bytes.Equal(got, want[f.typ]) {
			t.Errorf("%s: recovered snapshot differs (%d bytes vs %d)", f.typ, len(got), len(want[f.typ]))
		}
	}
}
