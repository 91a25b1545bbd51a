package server

import (
	"encoding/json"
	"fmt"

	"repro/internal/durable"
)

// EnableDurability attaches a write-ahead log + snapshot store under
// dir: it recovers any previous state into the namespace (latest valid
// snapshot, then the WAL tail), then starts the background syncer so
// every subsequent create/ingest/merge/delete is logged off the hot
// path. Call before serving traffic; pair with CloseDurability on
// shutdown.
//
// With durability enabled, mutations on one sketch serialize on that
// sketch's WAL lock (apply + append + LSN bookkeeping must be atomic
// per sketch for snapshot consistency); cross-sketch concurrency and
// the durability-off fast path are unchanged.
func (s *Server) EnableDurability(dir string, opts durable.Options) (durable.RecoveryStats, error) {
	if s.dur != nil {
		return durable.RecoveryStats{}, fmt.Errorf("server: durability already enabled")
	}
	m, err := durable.Open(dir, opts)
	if err != nil {
		return durable.RecoveryStats{}, err
	}
	stats, err := m.Recover(&replayer{s: s})
	if err != nil {
		return stats, err
	}
	if err := m.Start(s.captureAll); err != nil {
		return stats, err
	}
	s.dur = m
	return stats, nil
}

// CloseDurability flushes the WAL, writes a final snapshot, and stops
// the durability subsystem. Stop the HTTP listener first so no handler
// is mid-append.
func (s *Server) CloseDurability() error {
	if s.dur == nil {
		return nil
	}
	err := s.dur.Close()
	s.dur = nil
	return err
}

// KillDurability simulates an unclean process death for recovery
// tests and experiments: the WAL is barriered to disk, then the
// durability subsystem is abandoned cold — syncer stopped mid-flight,
// no drain, no final snapshot. The server must not serve afterward;
// recovery is a fresh server over the same directory.
func (s *Server) KillDurability() error {
	if s.dur == nil {
		return nil
	}
	err := s.dur.Sync()
	s.dur.Kill()
	s.dur = nil
	return err
}

// DurabilityStatus reports the durability gauges (zero-valued Enabled
// false when the server runs in-memory only).
func (s *Server) DurabilityStatus() durable.Status {
	if s.dur == nil {
		return durable.Status{}
	}
	return s.dur.Status()
}

// captureAll is the snapshot capture callback: it lists every live
// sketch as a row whose Stream writes it, under its WAL lock and paired
// with the last LSN already folded into it, when the cut reaches that
// row. A sketch that fails to serialize is left out (it stays
// recoverable only until the WAL truncates, which cannot happen for
// registry families — all of them marshal).
func (s *Server) captureAll() []durable.SketchSnap {
	var out []durable.SketchSnap
	for _, ts := range s.tenantsSnapshot() {
		for _, ne := range ts.reg.snapshot() {
			req, err := json.Marshal(ne.entry.CreateReq())
			if err != nil {
				continue
			}
			out = append(out, durable.SketchSnap{Tenant: ts.walName, Name: ne.name, Req: req, Stream: ne.stream})
		}
	}
	return out
}

// stream writes the entry's envelope to row with the LSN it holds, both
// read under the entry's WAL lock. The lock is held while the envelope
// goes into the file: a mutation of this sketch waits for the row.
func (ne *namedEntry) stream(row *durable.Row) error {
	ne.walMu.Lock()
	defer ne.walMu.Unlock()
	row.LSN = ne.lastLSN
	return ne.entry.StreamSnapshot(row)
}

// hold claims an entry for the mutation in progress. An apply body calls
// it on every entry before publishing or mutating it, in sorted-name
// order when it touches several (group-by), and leaves alone an entry
// for which it answers false: that entry already holds the record.
type hold func(*namedEntry) bool

func noHold(*namedEntry) bool { return true }

// logged is the durability policy around one mutation, and the only
// place that asks whether there is a log. apply changes the state and
// returns how many of the entries it claimed, counted from the first,
// now hold the change. On a durable server a claim takes the entry's WAL
// lock, and apply, the append of the record (body) and the LSN
// bookkeeping run under every lock claimed — so a captured sketch's
// bytes hold exactly the records at or below its lastLSN, and a sketch
// claimed before it was published cannot be mutated by anyone who finds
// it until the record that creates it is in the log. The append only
// copies into a bounded queue; disk I/O and fsync are the background
// syncer's. An apply that fails logs nothing. In-memory servers run
// apply with no lock.
func (s *Server) logged(ts *tenantState, op byte, name string, body []byte, apply func(hold) (int, error)) error {
	if s.dur == nil {
		_, err := apply(noHold)
		return err
	}
	var held []*namedEntry
	defer func() {
		for _, ne := range held {
			ne.walMu.Unlock()
		}
	}()
	n, err := apply(func(ne *namedEntry) bool {
		ne.walMu.Lock()
		held = append(held, ne)
		return true
	})
	if err != nil {
		return err
	}
	lsn := s.dur.Append(op, ts.walName, name, body)
	for _, ne := range held[:n] {
		ne.lastLSN = lsn
	}
	return nil
}

// remove deletes a sketch on behalf of a client or the reaper, logging
// the delete so recovery replays it instead of resurrecting the sketch.
func (s *Server) remove(ts *tenantState, name string) bool {
	return s.logged(ts, durable.OpDelete, name, nil, func(hold) (int, error) {
		if !ts.remove(name) {
			return 0, ErrNotFound
		}
		return 0, nil
	}) == nil
}

// replayer applies recovered or replicated state to the namespace
// through the apply bodies the live handlers run under logged —
// tenantState.create and remove, Entry.Ingest and Merge, fanOut — so
// recovery and a follower cannot drift from the server that wrote the
// log. Its own policy is the skip rule, which makes replay exact
// without any deduplication state: a snapshot at cut LSN M subsumes
// every create/delete at or below M (the namespace it captured already
// reflects them) and every ingest/merge at or below the owning sketch's
// LastLSN (the captured bytes already contain them).
type replayer struct {
	s       *Server
	snapLSN uint64
}

func (r *replayer) Begin(snapLSN uint64) error {
	r.snapLSN = snapLSN
	return nil
}

func (r *replayer) RestoreSketch(sn durable.SketchSnap) error {
	var req CreateRequest
	if err := json.Unmarshal(sn.Req, &req); err != nil {
		return fmt.Errorf("create request: %w", err)
	}
	ne, err := r.s.walTenantState(sn.Tenant).create(sn.Name, req, sn.Data, noHold, r.s.bufferedIngest)
	if err != nil {
		return err
	}
	ne.lastLSN = sn.LastLSN
	return nil
}

func (r *replayer) Replay(rec durable.Record) error {
	ts := r.s.walTenantState(rec.Tenant)
	switch rec.Op {
	case durable.OpCreate:
		if rec.LSN <= r.snapLSN {
			return nil // the snapshot namespace already reflects it
		}
		if _, err := ts.reg.get(rec.Name); err == nil {
			return nil // already restored from the snapshot
		}
		var req CreateRequest
		if err := json.Unmarshal(rec.Body, &req); err != nil {
			return err
		}
		ne, err := ts.create(rec.Name, req, nil, noHold, r.s.bufferedIngest)
		if err != nil {
			return err
		}
		ne.lastLSN = rec.LSN
	case durable.OpIngest, durable.OpMerge:
		ne, err := ts.reg.get(rec.Name)
		if err != nil {
			return nil // deleted later in the log, or never created: skip
		}
		if rec.LSN <= ne.lastLSN {
			return nil // already inside the recovered bytes
		}
		if rec.Op == durable.OpIngest {
			_, err = ne.entry.Ingest(rec.Body)
		} else {
			err = ne.entry.Merge(rec.Body)
		}
		if err != nil {
			return err
		}
		ne.lastLSN = rec.LSN
	case durable.OpDelete:
		if rec.LSN > r.snapLSN {
			ts.remove(rec.Name)
		}
	case durable.OpGroupBy:
		return replayGroupBy(ts, rec, r.s.bufferedIngest)
	default:
		return fmt.Errorf("unknown WAL op %d", rec.Op)
	}
	return nil
}
