package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/server/client"
)

// follower adds an in-memory node to f with a replica following
// leaderURL.
func follower(f *fleet, leaderURL, mirror string) (*node, *Replica) {
	n := f.add(server.New(), "")
	return n, NewReplica(leaderURL, n.Server, ReplicaOptions{MirrorDir: mirror})
}

func estimateOf(t *testing.T, n *node, name string) float64 {
	t.Helper()
	est, err := client.New(n.URL).Estimate(name, nil)
	if err != nil {
		t.Fatalf("estimate %s: %v", name, err)
	}
	return est
}

// Core replication loop: seal → ship sealed segments → replay. The
// follower converges to the leader's exact state and the shipped
// segment files are byte-identical to the leader's.
func TestReplicaShipsSegmentsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	mirror := t.TempDir()
	f := newFleet(t, 0)
	lead := f.add(server.New(), dir)
	lcl := client.New(lead.URL)

	if err := lcl.Create("users", server.CreateRequest{Type: "hll", P: 12, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	for i := 0; i < 5_000; i++ {
		fmt.Fprintf(&batch, "user-%d\n", i)
	}
	if err := lcl.AddBatch("users", batch.Bytes()); err != nil {
		t.Fatal(err)
	}

	fsrv, rep := follower(f, lead.URL, mirror)
	if err := rep.SyncOnce(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	lEst, err := lcl.Estimate("users", nil)
	if err != nil {
		t.Fatal(err)
	}
	if fEst := estimateOf(t, fsrv, "users"); fEst != lEst {
		t.Errorf("follower estimate %.2f != leader %.2f after sync", fEst, lEst)
	}

	// Every mirrored WAL segment is the leader's file, byte for byte.
	names, err := filepath.Glob(filepath.Join(mirror, "wal-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no mirrored segments (err %v)", err)
	}
	for _, name := range names {
		shipped, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(filepath.Join(dir, filepath.Base(name)))
		if err != nil {
			t.Fatalf("leader lost %s: %v", filepath.Base(name), err)
		}
		if !bytes.Equal(shipped, orig) {
			t.Errorf("segment %s differs between leader and mirror", filepath.Base(name))
		}
	}
}

// Replication lag is the LSN gap, reported on both ends of the link:
// zero right after a sync, exactly the number of unshipped mutation
// records after new writes, zero again after the next sync.
func TestReplicationLagBounded(t *testing.T) {
	f := newFleet(t, 0)
	lead := f.add(server.New(), t.TempDir())
	lcl := client.New(lead.URL)

	if err := lcl.Create("users", server.CreateRequest{Type: "hll", P: 12, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	fsrv, rep := follower(f, lead.URL, "")
	if err := rep.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	st, err := lcl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.Role != "leader" || st.Replication.LagRecords != 0 {
		t.Errorf("leader after sync: role %q lag %d, want leader/0", st.Replication.Role, st.Replication.LagRecords)
	}

	// 5 more batches = 5 more WAL records the follower has not seen.
	for i := 0; i < 5; i++ {
		if err := lcl.AddBatch("users", []byte("x\ny\n")); err != nil {
			t.Fatal(err)
		}
	}
	// Report the stale applied LSN to the leader without advancing.
	if _, err := client.New(lead.URL).ReplStatus(rep.Applied()); err != nil {
		t.Fatal(err)
	}
	st, err = lcl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.LagRecords != 5 {
		t.Errorf("leader lag %d records, want exactly 5", st.Replication.LagRecords)
	}

	if err := rep.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	fst, err := client.New(fsrv.URL).Status()
	if err != nil {
		t.Fatal(err)
	}
	if fst.Replication.Role != "follower" || fst.Replication.LagRecords != 0 {
		t.Errorf("follower after sync: role %q lag %d, want follower/0", fst.Replication.Role, fst.Replication.LagRecords)
	}
	if fst.Replication.AppliedLSN != st.Durability.WALLSN {
		t.Errorf("follower applied %d != leader wal_lsn %d", fst.Replication.AppliedLSN, st.Durability.WALLSN)
	}
}

// A follower arriving after the leader has snapshotted (here: a leader
// restart, whose clean shutdown writes one) catches up from the
// snapshot, then replays only the WAL tail past it.
func TestReplicaSnapshotCatchUp(t *testing.T) {
	dir := t.TempDir()
	mirror := t.TempDir()

	f := newFleet(t, 0)
	lead := f.add(server.New(), dir)
	cl1 := client.New(lead.URL)
	if err := cl1.Create("users", server.CreateRequest{Type: "hll", P: 12, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := cl1.AddBatch("users", []byte("a\nb\nc\nd\ne\n")); err != nil {
		t.Fatal(err)
	}
	lead.hs.Close()
	if err := lead.CloseDurability(); err != nil { // writes the snapshot
		t.Fatal(err)
	}

	f.Restart(0)
	lcl := client.New(lead.URL)
	if err := lcl.AddBatch("users", []byte("f\ng\nh\n")); err != nil { // WAL tail past the snapshot
		t.Fatal(err)
	}

	fsrv, rep := follower(f, lead.URL, mirror)
	if err := rep.SyncOnce(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if rep.reseeds != 1 {
		t.Errorf("reseeds %d, want 1 (snapshot catch-up)", rep.reseeds)
	}
	lEst, err := lcl.Estimate("users", nil)
	if err != nil {
		t.Fatal(err)
	}
	if fEst := estimateOf(t, fsrv, "users"); fEst != lEst {
		t.Errorf("follower %.2f != leader %.2f after snapshot catch-up", fEst, lEst)
	}
	if snaps, _ := filepath.Glob(filepath.Join(mirror, "snap-*.snap")); len(snaps) == 0 {
		t.Error("snapshot was not mirrored")
	}

	// Later rounds are incremental: no re-seed, tail records apply.
	if err := lcl.AddBatch("users", []byte("i\nj\n")); err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if rep.reseeds != 1 {
		t.Errorf("reseeds %d after incremental round, want still 1", rep.reseeds)
	}
	lEst, _ = lcl.Estimate("users", nil)
	if fEst := estimateOf(t, fsrv, "users"); fEst != lEst {
		t.Errorf("follower %.2f != leader %.2f after incremental sync", fEst, lEst)
	}
}

// A leader that crashed mid-append leaves a torn final record in its
// last segment. Recovery (leader) and shipping (follower) must both
// stop at the same valid prefix, and post-restart writes must keep the
// follower consistent.
func TestReplicaTornFinalSegment(t *testing.T) {
	dir := t.TempDir()

	// Handcraft a crashed leader: header + create + 3 ingests, then a
	// 4th ingest record cut off mid-payload.
	req, _ := json.Marshal(server.CreateRequest{Type: "hll", P: 12, Seed: 3})
	log := durable.WALHeader()
	log = durable.AppendRecord(log, durable.Record{LSN: 1, Op: durable.OpCreate, Name: "users", Body: req})
	for i, batch := range []string{"a\nb\n", "c\nd\n", "e\nf\n"} {
		log = durable.AppendRecord(log, durable.Record{LSN: uint64(2 + i), Op: durable.OpIngest, Name: "users", Body: []byte(batch)})
	}
	whole := len(log)
	log = durable.AppendRecord(log, durable.Record{LSN: 5, Op: durable.OpIngest, Name: "users", Body: []byte("TORN\nTORN\n")})
	log = log[:whole+(len(log)-whole)/2] // crash mid-record
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000000.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}

	f := newFleet(t, 0)
	lead := f.add(server.New(), dir) // recovers the valid prefix, opens a new segment
	lcl := client.New(lead.URL)
	if err := lcl.AddBatch("users", []byte("g\nh\n")); err != nil { // reuses LSN 5
		t.Fatal(err)
	}

	fsrv, rep := follower(f, lead.URL, "")
	if err := rep.SyncOnce(); err != nil {
		t.Fatalf("sync over torn segment: %v", err)
	}
	lEst, err := lcl.Estimate("users", nil)
	if err != nil {
		t.Fatal(err)
	}
	fEst := estimateOf(t, fsrv, "users")
	if fEst != lEst {
		t.Errorf("follower %.2f != leader %.2f across torn segment", fEst, lEst)
	}
	// The torn batch must not have leaked into the follower.
	env, err := client.New(fsrv.URL).Snapshot("users")
	if err != nil {
		t.Fatal(err)
	}
	lenv, err := lcl.Snapshot("users")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env, lenv) {
		t.Error("follower snapshot differs from leader's after torn-segment replay")
	}
	if strings.Contains(string(env), "TORN") {
		t.Error("torn record contents visible in follower state")
	}
	if rep.Applied() == 0 {
		t.Error("replica applied nothing")
	}
}

// Killing and restarting the whole follower re-seeds cleanly from the
// leader's snapshot path on first contact — the cold-start story.
func TestReplicaFreshFollowerJoinsLate(t *testing.T) {
	f := newFleet(t, 0)
	lead := f.add(server.New(), t.TempDir())
	lcl := client.New(lead.URL)
	if err := lcl.Create("users", server.CreateRequest{Type: "hll", P: 12, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := lcl.AddBatch("users", []byte("a\nb\nc\n")); err != nil {
			t.Fatal(err)
		}
	}
	// First follower syncs, then "dies"; a second one joins from zero.
	_, rep1 := follower(f, lead.URL, "")
	if err := rep1.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	fsrv2, rep2 := follower(f, lead.URL, "")
	if err := rep2.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	lEst, _ := lcl.Estimate("users", nil)
	if fEst := estimateOf(t, fsrv2, "users"); fEst != lEst {
		t.Errorf("late follower %.2f != leader %.2f", fEst, lEst)
	}
	if rep2.Applied() != rep1.Applied() {
		t.Errorf("followers disagree on applied LSN: %d vs %d", rep2.Applied(), rep1.Applied())
	}
}
