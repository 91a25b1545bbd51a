package server

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
)

// Leader-side replication endpoints (the repl-* rows of Ops).
// Replication is follower-pull over the same HTTP surface as everything
// else: the follower asks the leader to seal its active WAL segment,
// polls the manifest of shippable files (sealed segments + snapshots),
// downloads what it is missing, and replays locally through the exact
// recovery machinery a restart uses. The poll carries the follower's
// applied LSN, which is how the leader knows its replication lag
// without any push channel. All three endpoints answer 409 on an
// in-memory-only server — replication ships the durable log, so there
// is nothing to follow without one.

// ReplicationStatus is the replication block of GET /v1/status. On a
// leader (durability on, at least one follower poll seen) it reports
// how far the slowest-known follower trails the WAL; on a follower it
// reports the apply frontier the replica has reached. LagRecords is
// the LSN gap — with one LSN per mutation record, it counts exactly
// the mutations the follower has not applied yet.
type ReplicationStatus struct {
	Role          string `json:"role,omitempty"` // "leader" | "follower"
	FollowerLSN   uint64 `json:"follower_lsn,omitempty"`
	LagRecords    uint64 `json:"lag_records"`
	FollowerAgeMS int64  `json:"follower_age_ms,omitempty"`
	AppliedLSN    uint64 `json:"applied_lsn,omitempty"`
	LeaderLSN     uint64 `json:"leader_lsn,omitempty"`
	Leader        string `json:"leader,omitempty"`
	LastSyncAgeMS int64  `json:"last_sync_age_ms,omitempty"`
}

// replState tracks what the server knows about replication: follower
// polls observed by a leader (atomics, touched on the poll path), and
// a follower's own self-report installed by its replica loop.
type replState struct {
	followerLSN  atomic.Uint64
	followerSeen atomic.Int64 // unixnano of the last poll; 0 = never

	mu   sync.Mutex
	self *ReplicationStatus // non-nil on a follower
	at   time.Time
}

// SetReplicationSelf installs the follower self-report shown on
// GET /v1/status (the replica loop calls it after every sync round).
func (s *Server) SetReplicationSelf(st ReplicationStatus) {
	s.repl.mu.Lock()
	s.repl.self = &st
	s.repl.at = time.Now()
	s.repl.mu.Unlock()
}

// ReplicationStatus assembles the status block: a follower self-report
// wins; otherwise a durable server that has seen a follower poll
// reports leader-side lag.
func (s *Server) ReplicationStatus() ReplicationStatus {
	s.repl.mu.Lock()
	self, at := s.repl.self, s.repl.at
	s.repl.mu.Unlock()
	if self != nil {
		st := *self
		st.Role = "follower"
		st.LastSyncAgeMS = time.Since(at).Milliseconds()
		return st
	}
	seen := s.repl.followerSeen.Load()
	if s.dur == nil || seen == 0 {
		return ReplicationStatus{}
	}
	st := ReplicationStatus{
		Role:          "leader",
		FollowerLSN:   s.repl.followerLSN.Load(),
		FollowerAgeMS: time.Since(time.Unix(0, seen)).Milliseconds(),
	}
	if wal := s.dur.Status().WALLSN; wal > st.FollowerLSN {
		st.LagRecords = wal - st.FollowerLSN
	}
	return st
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if s.dur == nil {
		HTTPError(w, http.StatusConflict, "replication requires a durable server (-data-dir)")
		return
	}
	if applied := r.URL.Query().Get("applied"); applied != "" {
		if lsn, err := strconv.ParseUint(applied, 10, 64); err == nil {
			s.repl.followerLSN.Store(lsn)
			s.repl.followerSeen.Store(time.Now().UnixNano())
		}
	}
	WriteJSON(w, http.StatusOK, s.dur.Shippable())
}

func (s *Server) handleReplFile(w http.ResponseWriter, r *http.Request) {
	if s.dur == nil {
		HTTPError(w, http.StatusConflict, "replication requires a durable server (-data-dir)")
		return
	}
	data, err := s.dur.ReadShippable(r.PathValue("name"))
	if err != nil {
		HTTPError(w, http.StatusNotFound, "%v", err)
		return
	}
	WriteEnvelope(w, data)
}

func (s *Server) handleReplSeal(w http.ResponseWriter, _ *http.Request) {
	if s.dur == nil {
		HTTPError(w, http.StatusConflict, "replication requires a durable server (-data-dir)")
		return
	}
	if err := s.dur.SealActive(); err != nil {
		HTTPError(w, http.StatusInternalServerError, "seal: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"sealed": true})
}

// NewReplayer returns a durable.RecoveryHandler that applies recovered
// or replicated state into this server's namespace — the same handler
// local crash recovery uses. A replication follower drives it
// incrementally: Begin + RestoreSketch for snapshot catch-up, then
// Replay per shipped WAL record, in LSN order, across sync rounds.
func (s *Server) NewReplayer() durable.RecoveryHandler {
	return &replayer{s: s}
}

// ResetNamespace drops every sketch, closing each entry. A follower
// re-seeding from a newer leader snapshot calls this first so the
// restored namespace is exactly the snapshot's, with no survivors from
// the previous timeline.
func (s *Server) ResetNamespace() {
	for _, ts := range s.tenantsSnapshot() {
		for _, ne := range ts.reg.snapshot() {
			ts.remove(ne.name)
		}
	}
}
