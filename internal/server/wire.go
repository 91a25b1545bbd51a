package server

import (
	"sort"

	"repro/internal/core"
	typereg "repro/internal/registry"
)

// wireCounters tracks one family's snapshot bytes shipped on the wire,
// split by envelope form. Transmitted bytes are the currency of
// scatter-gather reads, bundles and federated fan-ins, so they are a
// first-class counter next to ops — /v1/status and /debug/statsz
// surface the nonzero rows, which is how the slim-shipping win (and
// any regression) is observed on a live server.
type wireCounters struct {
	fullSnaps core.Counter
	fullBytes core.Counter
	slimSnaps core.Counter
	slimBytes core.Counter
	projSnaps core.Counter
	projBytes core.Counter
	unchanged core.Counter // conditional reads answered 304
}

// WireStat is one family's wire-byte row on /v1/status and
// /debug/statsz.
type WireStat struct {
	Type          string `json:"type"`
	FullSnapshots uint64 `json:"full_snapshots"`
	FullBytes     uint64 `json:"full_bytes"`
	SlimSnapshots uint64 `json:"slim_snapshots,omitempty"`
	SlimBytes     uint64 `json:"slim_bytes,omitempty"`
	Projections   uint64 `json:"projections,omitempty"`
	ProjBytes     uint64 `json:"projection_bytes,omitempty"`
	NotModified   uint64 `json:"not_modified,omitempty"`
}

// newWireCounters prebuilds a counter row per servable family, so the
// snapshot hot path only ever increments atomics — no locking, no map
// mutation.
func newWireCounters() map[string]*wireCounters {
	m := make(map[string]*wireCounters)
	for _, d := range typereg.All() {
		if d.Servable() {
			m[d.Name] = &wireCounters{}
		}
	}
	return m
}

// countWire records one served snapshot of the given family in the form
// it went out in: "slim", "projection", "" for the full envelope, or
// "not-modified" for a conditional read answered 304 with no body.
func (s *Server) countWire(typeName, wire string, bytes int) {
	wc := s.wire[typeName]
	if wc == nil {
		return
	}
	snaps, sum := &wc.fullSnaps, &wc.fullBytes
	switch wire {
	case "slim":
		snaps, sum = &wc.slimSnaps, &wc.slimBytes
	case "projection":
		snaps, sum = &wc.projSnaps, &wc.projBytes
	case "not-modified":
		wc.unchanged.Inc()
		return
	}
	snaps.Inc()
	sum.Add(uint64(bytes))
}

// wireStats returns the families with wire traffic, sorted by name.
func (s *Server) wireStats() []WireStat {
	out := make([]WireStat, 0, 4)
	for name, wc := range s.wire {
		st := WireStat{
			Type:          name,
			FullSnapshots: wc.fullSnaps.Load(),
			FullBytes:     wc.fullBytes.Load(),
			SlimSnapshots: wc.slimSnaps.Load(),
			SlimBytes:     wc.slimBytes.Load(),
			Projections:   wc.projSnaps.Load(),
			ProjBytes:     wc.projBytes.Load(),
			NotModified:   wc.unchanged.Load(),
		}
		if st.FullSnapshots == 0 && st.SlimSnapshots == 0 && st.Projections == 0 && st.NotModified == 0 {
			continue
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}
