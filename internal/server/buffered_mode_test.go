package server

// Serving-mode tests for -concurrent-ingest=buffered: the registry's
// buffered (local-buffer/global-propagation) variants behind the same
// HTTP surface, including lifecycle (delete stops the propagator
// goroutine) and crash recovery with byte-identical restores. The mode
// belongs to a Server, so these tests run in parallel, beside servers
// in the default mode.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	typereg "repro/internal/registry"
)

// bufferedServer is a Server in buffered mode whose sketches' propagator
// goroutines stop when the test ends.
func bufferedServer(t *testing.T) *Server {
	s := New()
	s.SetBufferedIngest(true)
	t.Cleanup(func() { closeEntries(s) })
	return s
}

// closeEntries closes every live entry of s.
func closeEntries(s *Server) {
	for _, ts := range s.tenantsSnapshot() {
		for _, ne := range ts.reg.snapshot() {
			ne.entry.Close()
		}
	}
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
	t.Parallel()
	s := bufferedServer(t)
	ts := serveLoop(t, s.Handler(), nil)

	for _, f := range bufferedFamilies {
		do(t, "POST", ts.URL+"/v1/sketch/buf-"+f.typ, fmt.Sprintf(`{"type":%q}`, f.typ)).ok(t)
		for round := 0; round < 3; round++ {
			do(t, "POST", ts.URL+"/v1/sketch/buf-"+f.typ+"/add", f.batch(round)).ok(t)
		}
		// Snapshot syncs the buffered instance, so the query that
		// follows is exact (no writers in flight).
		do(t, "GET", ts.URL+"/v1/sketch/buf-"+f.typ+"/snapshot", "").ok(t)
		var q map[string]any
		if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/sketch/buf-"+f.typ+"/query", "").ok(t), &q); err != nil {
			t.Fatalf("%s query: %v", f.typ, err)
		}
		if _, ok := q["staleness_bound"]; !ok {
			t.Errorf("%s: buffered query lacks staleness_bound: %v", f.typ, q)
		}
	}

	var q map[string]any
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/sketch/buf-countmin/query?item=hot", "").ok(t), &q); err != nil {
		t.Fatal(err)
	}
	if est := q["estimate"].(float64); est < 9 {
		t.Errorf("countmin estimate for hot = %v, want >= 9 (3 rounds x weight 3)", est)
	}
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/sketch/buf-blockedbloom/query?item=member-1", "").ok(t), &q); err != nil {
		t.Fatal(err)
	}
	if q["contains"] != true {
		t.Errorf("blockedbloom lost member-1: %v", q)
	}
}

// propagators counts the process's live propagator goroutines.
func propagators() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "concurrent.(*propagator).loop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Deleting a buffered sketch must stop its propagator goroutine.
func TestBufferedDeleteStopsPropagator(t *testing.T) {
	t.Parallel()
	s := bufferedServer(t)
	ts := serveLoop(t, s.Handler(), nil)

	// Measure relative to the fully created state, counting propagators
	// only, so the tests running beside this one and the HTTP
	// connections cancel out: deleting the 8 sketches must release their
	// 8 propagator goroutines. Other tests stop theirs when they end, so
	// a count they raise meanwhile falls back before the deadline.
	const sketches = 8
	for i := 0; i < sketches; i++ {
		name := fmt.Sprintf("tmp-%d", i)
		do(t, "POST", ts.URL+"/v1/sketch/"+name, `{"type":"countmin"}`).ok(t)
		do(t, "POST", ts.URL+"/v1/sketch/"+name+"/add", "x\ny").ok(t)
	}
	withSketches := propagators()
	for i := 0; i < sketches; i++ {
		do(t, "DELETE", ts.URL+fmt.Sprintf("/v1/sketch/tmp-%d", i), "").ok(t)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if propagators() <= withSketches-sketches {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("propagators %d after deletes, want <= %d (had %d with %d buffered sketches live)",
				propagators(), withSketches-sketches, withSketches, sketches)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Crash recovery in buffered mode: same contract as the atomic path —
// recovered snapshots are byte-identical, because buffered marshal
// syncs (batch-end flush means every WAL-logged batch is handed off
// before its append) and restore merges into a fresh buffered global.
func TestBufferedCrashRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, bufferedServer(t), dir, durable.Options{FsyncInterval: 0})

	for _, f := range bufferedFamilies {
		do(t, "POST", ts1.URL+"/v1/sketch/bufdur-"+f.typ, fmt.Sprintf(`{"type":%q}`, f.typ)).ok(t)
		do(t, "POST", ts1.URL+"/v1/sketch/bufdur-"+f.typ+"/add", f.batch(0)).ok(t)
	}
	if err := s1.dur.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	for round := 1; round <= 3; round++ {
		for _, f := range bufferedFamilies {
			do(t, "POST", ts1.URL+"/v1/sketch/bufdur-"+f.typ+"/add", f.batch(round)).ok(t)
		}
	}
	want := map[string][]byte{}
	for _, f := range bufferedFamilies {
		want[f.typ] = do(t, "GET", ts1.URL+"/v1/sketch/bufdur-"+f.typ+"/snapshot", "").ok(t)
	}

	if err := s1.dur.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	ts1.Close()
	s1.dur.Kill()

	_, ts2, stats := durableServer(t, bufferedServer(t), dir, durable.Options{FsyncInterval: 0})
	if stats.SketchesLoaded != len(bufferedFamilies) {
		t.Fatalf("recovered %d sketches, want %d (stats %+v)", stats.SketchesLoaded, len(bufferedFamilies), stats)
	}
	for _, f := range bufferedFamilies {
		got := do(t, "GET", ts2.URL+"/v1/sketch/bufdur-"+f.typ+"/snapshot", "").ok(t)
		if !bytes.Equal(got, want[f.typ]) {
			t.Errorf("%s: recovered snapshot differs (%d bytes vs %d)", f.typ, len(got), len(want[f.typ]))
		}
	}
}

// TestTwoServingModesInOneProcess: a buffered and a default server side
// by side, each hosting the three families with a buffered form, fed
// the same batches by concurrent writers. After a snapshot each sketch
// holds the bytes of a plain sketch fed the same lines, and only the
// buffered server's answers carry staleness_bound.
func TestTwoServingModesInOneProcess(t *testing.T) {
	t.Parallel()
	servers := map[string]served{}
	for mode, s := range map[string]*Server{"buffered": bufferedServer(t), "default": New()} {
		servers[mode] = serveLoop(t, s.Handler(), nil)
	}
	for _, ts := range servers {
		for _, f := range bufferedFamilies {
			do(t, "POST", ts.URL+"/v1/sketch/"+f.typ, fmt.Sprintf(`{"type":%q}`, f.typ)).ok(t)
		}
	}

	const writers, rounds = 4, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, f := range bufferedFamilies {
					for _, ts := range servers {
						resp, err := http.Post(ts.URL+"/v1/sketch/"+f.typ+"/add", "text/plain", strings.NewReader(f.batch(w*rounds+r)))
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Errorf("%s add: HTTP %d", f.typ, resp.StatusCode)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	for _, f := range bufferedFamilies {
		d, _ := typereg.Lookup(f.typ)
		p, err := d.Validate(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := d.New(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < writers*rounds; i++ {
			if _, err := d.Bind.Ingest(plain, []byte(f.batch(i))); err != nil {
				t.Fatal(err)
			}
		}
		want, err := typereg.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		for mode, ts := range servers {
			if got := do(t, "GET", ts.URL+"/v1/sketch/"+f.typ+"/snapshot", "").ok(t); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: snapshot differs from the plain sketch's (%d vs %d bytes)", mode, f.typ, len(got), len(want))
			}
			var q map[string]any
			if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/sketch/"+f.typ+"/query", "").ok(t), &q); err != nil {
				t.Fatal(err)
			}
			if _, ok := q["staleness_bound"]; ok != (mode == "buffered") {
				t.Errorf("%s/%s: staleness_bound present = %v: %v", mode, f.typ, ok, q)
			}
		}
	}
}
