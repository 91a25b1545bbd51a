package server

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// routeTable renders Ops as the markdown table README.md carries.
func routeTable() string {
	var b strings.Builder
	b.WriteString("| operation | route | tenant twin | in a cluster | |\n|---|---|---|---|---|\n")
	for _, op := range Ops {
		twin := "no"
		if op.Tenant {
			twin = "yes"
		}
		fmt.Fprintf(&b, "| %s | `%s %s` | %s | %s | %s |\n", op.Name, op.Method, op.Pattern, twin, op.Cluster, op.Doc)
	}
	return b.String()
}

// The route list exists once, in Ops; the README's copy is this
// rendering of it, line for line.
func TestRouteTableDocs(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := routeTable(); !strings.Contains(string(readme), want) {
		t.Errorf("README.md does not carry the operation table as server.Ops renders it; paste:\n%s", want)
	}
}

func TestOpPath(t *testing.T) {
	for _, tc := range []struct{ op, tenant, name, want string }{
		{"add", "", "a b", "/v1/sketch/a%20b/add"},
		{"add", DefaultTenant, "s", "/v1/sketch/s/add"},
		{"create", "acme", "s", "/v1/t/acme/sketch/s"},
		{"list", "acme", "", "/v1/t/acme/sketch"},
		{"status", "acme", "", "/v1/status"}, // no tenant twin: the process's own
		{"repl-file", "", "wal-1.log", "/v1/repl/file/wal-1.log"},
		{"statsz", "", "", "/debug/statsz"},
		{"query", "a/b c", "x?y=1&z;%", "/v1/t/a%2Fb%20c/sketch/x%3Fy=1&z%3B%25/query"},
		{"delete", "", "naïve~-_.", "/v1/sketch/na%C3%AFve~-_."},
	} {
		if got := Named(tc.op).AppendPath([]byte("GET "), tc.tenant, tc.name); string(got) != "GET "+tc.want {
			t.Errorf("%s.AppendPath = %q, want it to append %q", tc.op, got, tc.want)
		}
	}
}

func TestReadAppendGrowsAndReuses(t *testing.T) {
	payload := bytes.Repeat([]byte("envelope-bytes"), 1000)

	// From nil: grows to fit and returns the exact payload.
	got, err := ReadAppend(bytes.NewReader(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("ReadAppend from nil: %d bytes, want %d", len(got), len(payload))
	}

	// Reused at capacity: same backing array, no copy drift.
	buf := got
	got2, err := ReadAppend(bytes.NewReader(payload), buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, payload) {
		t.Fatal("ReadAppend into reused buffer corrupted the payload")
	}
	if &got2[0] != &buf[0] {
		t.Fatal("ReadAppend reallocated a buffer that already fit the payload")
	}
}

func TestReadAppendZeroAllocSteadyState(t *testing.T) {
	// The pooled scatter-gather read path's contract: once a shard's
	// buffer has grown to the envelope size, re-reading an envelope of
	// the same size allocates nothing. bytes.Reader needs one extra byte
	// of headroom to observe EOF without triggering the grow path, which
	// matches a real response body read.
	payload := bytes.Repeat([]byte("envelope-bytes"), 1000)
	buf := make([]byte, 0, len(payload)+1)
	rd := bytes.NewReader(payload)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(payload)
		var err error
		buf, err = ReadAppend(rd, buf[:0])
		if err != nil || len(buf) != len(payload) {
			t.Fatalf("ReadAppend: %v (%d bytes)", err, len(buf))
		}
	}); n != 0 {
		t.Errorf("ReadAppend steady state: %v allocs per op, want 0", n)
	}
}
