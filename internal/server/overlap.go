package server

import (
	"errors"
	"net/http"
	"strings"

	"repro/internal/adtech"
	"repro/internal/core"
)

// handleOverlap serves GET /v1/t/{tenant}/overlap?sketches=a,b — the
// audience-overlap (inclusion-exclusion) estimate across two of the
// tenant's cardinality sketches. Cross-tenant names 404 like any other
// lookup; mixed families 409.
func (s *Server) handleOverlap(w http.ResponseWriter, r *http.Request) {
	ts := s.tenant(TenantOf(r))
	if ts == nil {
		HTTPError(w, http.StatusNotFound, "%v", ErrNotFound)
		return
	}
	names := strings.Split(r.URL.Query().Get("sketches"), ",")
	if len(names) != 2 || names[0] == "" || names[1] == "" {
		HTTPError(w, http.StatusBadRequest, "overlap: ?sketches=a,b names exactly two sketches")
		return
	}
	envs := make([][]byte, 2)
	for i, name := range names {
		name = strings.TrimSpace(name)
		names[i] = name
		ne, err := ts.reg.get(name)
		if err != nil {
			HTTPError(w, http.StatusNotFound, "%v", err)
			return
		}
		env, err := ne.entry.Snapshot()
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		envs[i] = env
	}
	est, err := adtech.OverlapFromEnvelopes(envs[0], envs[1])
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrIncompatible) {
			status = http.StatusConflict
		}
		HTTPError(w, status, "%v", err)
		return
	}
	ts.queries.Inc()
	s.ops.Queries.Inc()
	WriteJSON(w, http.StatusOK, map[string]any{
		"tenant":   ts.name,
		"sketches": names,
		"overlap":  est,
	})
}
