package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Replica follows one durable sketchd leader by shipping its sealed
// DUR1 WAL segments and replaying them into a local in-memory server —
// a warm read standby. Each sync round:
//
//  1. asks the leader to seal its active segment (so staleness is
//     bounded by the poll interval, not the leader's rotation cadence),
//  2. polls the shippable manifest, reporting the applied LSN the
//     leader uses to surface replication lag,
//  3. catches up from the leader's snapshot when needed — first
//     contact, or the leader's snapshot moved past our replay frontier
//     (it may then have pruned segments we never fetched),
//  4. downloads each unseen sealed segment, optionally mirrors it to
//     disk byte-identically, and replays its valid prefix through the
//     same RecoveryHandler local crash recovery uses.
//
// The valid-prefix rule makes torn segments safe end to end: a leader
// that crashed mid-record seals a torn segment, recovery on both sides
// stops at the tear, and the leader's post-restart records continue
// from the last valid LSN — so the follower's per-sketch lastLSN
// bookkeeping dedups any overlap and never applies a half-written
// record.
type Replica struct {
	leader    *client.Client
	leaderURL string
	srv       *server.Server
	handler   durable.RecoveryHandler
	opts      ReplicaOptions

	seeded  bool
	applied uint64 // replay frontier: max applied LSN
	walLast uint64 // running ReplayLog cursor (monotonic across segments)
	nextSeq uint64 // first WAL segment seq not yet applied

	rounds   int
	segments int
	records  int
	reseeds  int
}

// ReplicaOptions configures a Replica. Zero values take the documented
// defaults.
type ReplicaOptions struct {
	// PollInterval between sync rounds in Run. Default 500ms.
	PollInterval time.Duration
	// MirrorDir, when set, receives a byte-identical copy of every
	// shipped file — a cold-start archive a future leader could
	// recover from.
	MirrorDir string
	// NoSeal skips the pre-poll seal request. Lag then grows until the
	// leader rotates segments on its own (size or snapshot cadence).
	NoSeal bool
}

// NewReplica builds a follower that replays leader into srv. srv must
// be an in-memory server (no durability): replicated state is the
// leader's history, and a follower writing its own WAL would interleave
// two histories.
func NewReplica(leaderURL string, srv *server.Server, opts ReplicaOptions) *Replica {
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	return &Replica{
		leader:    client.New(leaderURL),
		leaderURL: leaderURL,
		srv:       srv,
		handler:   srv.NewReplayer(),
		opts:      opts,
	}
}

// Applied returns the replica's replay frontier (last applied LSN).
func (r *Replica) Applied() uint64 { return r.applied }

// SyncOnce runs one sync round. Not safe for concurrent use — drive it
// from one loop (Run does).
func (r *Replica) SyncOnce() error {
	r.rounds++
	if !r.opts.NoSeal {
		// Best effort: a failed seal still leaves previously sealed
		// segments fetchable, and the poll below surfaces real outages.
		_ = r.leader.ReplSeal()
	}
	appliedBefore := r.applied
	st, err := r.leader.ReplStatus(r.applied)
	if err != nil {
		return fmt.Errorf("replica: poll %s: %w", r.leaderURL, err)
	}

	if !r.seeded || st.SnapshotLSN > r.applied {
		if err := r.seed(st); err != nil {
			return err
		}
	}

	for _, seg := range st.Segments {
		if seg.Seq < r.nextSeq {
			continue
		}
		data, err := r.leader.ReplFile(seg.Name)
		if err != nil {
			// Pruned between manifest and fetch (leader snapshotted):
			// the next round's manifest routes us through its snapshot.
			r.seeded = false
			return fmt.Errorf("replica: fetch %s: %w", seg.Name, err)
		}
		if err := r.mirror(seg.Name, data); err != nil {
			return err
		}
		before := r.walLast
		_, last, err := durable.ReplayLog(data, r.walLast, r.handler.Replay)
		if err != nil {
			return fmt.Errorf("replica: replay %s: %w", seg.Name, err)
		}
		r.walLast = last
		r.records += int(last - before)
		r.segments++
		r.nextSeq = seg.Seq + 1
	}
	if r.walLast > r.applied {
		r.applied = r.walLast
	}
	if r.applied > st.WALLSN {
		// Impossible unless the leader restarted into older history;
		// treat it as divergence and re-seed next round.
		r.seeded = false
	} else if r.applied != appliedBefore {
		// The poll above reported the pre-round frontier; refresh the
		// leader's lag view now that this round's records are applied.
		_, _ = r.leader.ReplStatus(r.applied)
	}

	status := server.ReplicationStatus{
		AppliedLSN: r.applied,
		LeaderLSN:  st.WALLSN,
		Leader:     r.leaderURL,
	}
	if st.WALLSN > r.applied {
		status.LagRecords = st.WALLSN - r.applied
	}
	r.srv.SetReplicationSelf(status)
	return nil
}

// seed (re)builds the namespace from the leader's current snapshot,
// dropping any prior state: after a seed the namespace is exactly the
// snapshot's, and segment replay continues from there. With no leader
// snapshot yet, seeding is just starting the replay from LSN 0.
func (r *Replica) seed(st durable.ShippableState) error {
	r.srv.ResetNamespace()
	r.walLast, r.nextSeq = 0, 0
	if err := r.handler.Begin(st.SnapshotLSN); err != nil {
		return err
	}
	if st.Snapshot != "" {
		data, err := r.leader.ReplFile(st.Snapshot)
		if err != nil {
			return fmt.Errorf("replica: fetch snapshot %s: %w", st.Snapshot, err)
		}
		if err := r.mirror(st.Snapshot, data); err != nil {
			return err
		}
		snaps, err := durable.DecodeSnapshotFile(data)
		if err != nil {
			return fmt.Errorf("replica: decode snapshot %s: %w", st.Snapshot, err)
		}
		for _, sn := range snaps {
			if err := r.handler.RestoreSketch(sn); err != nil {
				return fmt.Errorf("replica: restore %q: %w", sn.Name, err)
			}
		}
	}
	r.applied = st.SnapshotLSN
	r.seeded = true
	r.reseeds++
	return nil
}

func (r *Replica) mirror(name string, data []byte) error {
	if r.opts.MirrorDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.opts.MirrorDir, 0o755); err != nil {
		return fmt.Errorf("replica: mirror dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(r.opts.MirrorDir, name), data, 0o644); err != nil {
		return fmt.Errorf("replica: mirror %s: %w", name, err)
	}
	return nil
}

// Run polls until the context ends. Sync errors are transient by
// design (the leader restarting, a segment pruned mid-fetch) — they
// are reported through onErr (nil to ignore) and the loop keeps going.
func (r *Replica) Run(ctx context.Context, onErr func(error)) {
	t := time.NewTicker(r.opts.PollInterval)
	defer t.Stop()
	for {
		if err := r.SyncOnce(); err != nil && onErr != nil {
			onErr(err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
