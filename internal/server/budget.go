package server

import (
	"net/http"
	"strconv"
	"time"
)

// QueryBudget caps adaptive reads per (tenant, sketch): each sketch
// gets Queries estimate reads per Interval, refilled lazily at the
// window boundary. The guard is the server-side complement of the
// in-sketch defenses in internal/robust — the universal adaptive
// attack needs an estimate read per probe, so bounding reads per
// sketch bounds what any adversary can learn about one sketch's
// randomness regardless of family. Exhaustion answers 429 with a
// Retry-After naming the window remainder. Estimate reads (/query)
// and state reads (/snapshot) are gated — a snapshot reveals strictly
// more than an estimate — while ingest, merges, and listings never
// are. The zero value disables the guard.
type QueryBudget struct {
	// Queries per window per sketch; <= 0 disables the guard.
	Queries int64
	// Interval is the refill window (default one minute).
	Interval time.Duration
}

// SetQueryBudget installs the per-sketch query budget. Call before
// serving traffic.
func (s *Server) SetQueryBudget(qb QueryBudget) {
	if qb.Interval <= 0 {
		qb.Interval = time.Minute
	}
	s.qb = qb
}

// allowSketchQuery spends one token from the sketch's budget window.
// Hot path: two atomic loads and an add when the window is current —
// no allocation, no lock. The refill CAS is best-effort under races
// (two racing refills at a boundary cannot over-grant more than one
// window's tokens).
func (s *Server) allowSketchQuery(ne *namedEntry, now int64) (retryAfterS int64, ok bool) {
	q := s.qb
	if q.Queries <= 0 {
		return 0, true
	}
	interval := int64(q.Interval)
	win := ne.qbWindow.Load()
	if now-win >= interval {
		if ne.qbWindow.CompareAndSwap(win, now) {
			ne.qbTokens.Store(q.Queries)
		}
		win = ne.qbWindow.Load()
	}
	if ne.qbTokens.Add(-1) >= 0 {
		return 0, true
	}
	return retryAfterSeconds(win + interval - now), false
}

// allowTenantQuery spends one token from the tenant's queries-per-
// second window (TenantQuota.MaxQPS). Same lazy-refill shape as the
// sketch budget, over a fixed one-second window.
func (s *Server) allowTenantQuery(ts *tenantState, now int64) (retryAfterS int64, ok bool) {
	maxQPS := int64(s.quota.MaxQPS)
	if maxQPS <= 0 {
		return 0, true
	}
	const interval = int64(time.Second)
	win := ts.qpsWindow.Load()
	if now-win >= interval {
		if ts.qpsWindow.CompareAndSwap(win, now) {
			ts.qpsTokens.Store(maxQPS)
		}
		win = ts.qpsWindow.Load()
	}
	if ts.qpsTokens.Add(-1) >= 0 {
		return 0, true
	}
	return retryAfterSeconds(win + interval - now), false
}

// retryAfterSeconds converts a window remainder in nanoseconds to the
// whole-second Retry-After value, rounded up and never below 1 (a
// zero Retry-After invites an immediate retry of a still-exhausted
// bucket).
func retryAfterSeconds(nanos int64) int64 {
	if nanos <= 0 {
		return 1
	}
	secs := (nanos + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		return 1
	}
	return secs
}

// throttle answers a 429 with the standard Retry-After header — the
// contract client.StatusError parses and the coordinator passes
// through.
func throttle(w http.ResponseWriter, retryAfterS int64, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.FormatInt(retryAfterS, 10))
	HTTPError(w, http.StatusTooManyRequests, format, args...)
}

// guardRead applies the adaptive-read guards — the tenant QPS cap,
// then the per-sketch query budget — writing the 429 itself when a
// bucket is dry. Shared by /query and /snapshot; both read paths must
// be metered or the budget is a fence with an open gate.
func (s *Server) guardRead(w http.ResponseWriter, ts *tenantState, e *namedEntry) bool {
	if s.quota.MaxQPS <= 0 && s.qb.Queries <= 0 {
		return true
	}
	now := time.Now().UnixNano()
	if ra, allowed := s.allowTenantQuery(ts, now); !allowed {
		ts.throttled.Inc()
		throttle(w, ra, "tenant %q over %d queries/sec", ts.name, s.quota.MaxQPS)
		return false
	}
	if ra, allowed := s.allowSketchQuery(e, now); !allowed {
		ts.throttled.Inc()
		throttle(w, ra, "sketch %q query budget exhausted (%d per %s)",
			e.name, s.qb.Queries, s.qb.Interval)
		return false
	}
	return true
}
