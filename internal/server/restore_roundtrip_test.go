package server_test

// Restore round-trips across the whole catalog, and the client-visible
// durability status — the external halves of the crash-recovery suite
// (the kill-9 tests live in recovery_test.go inside the package, where
// the manager can be killed without a real process exit).

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/durable"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// splitLines breaks an ingest batch into its lines (Entry.Add's input
// form), preserving intra-line tabs that bytes.Fields would destroy.
func splitLines(batch string) [][]byte {
	var out [][]byte
	for _, line := range bytes.Split([]byte(batch), []byte("\n")) {
		if len(line) > 0 {
			out = append(out, line)
		}
	}
	return out
}

func newTestServerFor(t *testing.T, srv *server.Server) (*httptest.Server, *client.Client) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, client.New(ts.URL)
}

// TestRestoreEntryEveryServableFamily pins the recovery invariant for
// all servable types at once: NewEntry → ingest → Snapshot, then
// RestoreEntry from those bytes must reproduce the exact same
// serialization. This is the same code path snapshot recovery uses,
// so a family that breaks byte-identity fails here without needing a
// server or a crash.
func TestRestoreEntryEveryServableFamily(t *testing.T) {
	n := 0
	for _, d := range registry.All() {
		if !d.Servable() {
			continue
		}
		n++
		d := d
		t.Run(d.Name, func(t *testing.T) {
			req := server.CreateRequest{Type: d.Name}
			e, err := server.NewEntry(req)
			if err != nil {
				t.Fatalf("NewEntry: %v", err)
			}
			batch := batchFor(d.Input)
			if batch != "" {
				if err := e.Add(splitLines(batch)); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			want, err := e.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			re, err := server.RestoreEntry(req, want, false)
			if err != nil {
				t.Fatalf("RestoreEntry: %v", err)
			}
			got, err := re.Snapshot()
			if err != nil {
				t.Fatalf("restored Snapshot: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restore not byte-identical: %d bytes vs %d", len(got), len(want))
			}
		})
	}
	if n < 20 {
		t.Fatalf("only %d servable families exercised, expected the full catalog", n)
	}
}

// TestClientStatus drives GET /v1/status through the Go client against
// both a durable and an in-memory server.
func TestClientStatus(t *testing.T) {
	srv := server.New()
	if _, err := srv.EnableDurability(t.TempDir(), durable.Options{FsyncInterval: 0}); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	ts, cl := newTestServerFor(t, srv)
	_ = ts
	if err := cl.Create("s", server.CreateRequest{Type: "hll"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add("s", []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if !st.Durability.Enabled || st.Durability.WALLSN == 0 || st.Sketches != 1 {
		t.Fatalf("durable status %+v: want enabled, nonzero wal_lsn, 1 sketch", st)
	}
	if err := srv.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	_, cl2 := newTestServer(t)
	st2, err := cl2.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st2.Durability.Enabled {
		t.Fatalf("in-memory status %+v: durability should be disabled", st2)
	}
}
