package registry

// The one adapter between the descriptors and the local-buffer/global-
// propagation tier in internal/concurrent. Buffering is a policy over a
// family's global sketch, not a family: a buffered instance answers the
// read and merge methods of its atomic sibling, so the descriptors
// write each Serve.Query and Serve.Merge once against those methods and
// everything a buffered instance adds lives here — which constructor
// serves (the switch), how it is built over the sibling's global, batch
// ingest through a pooled writer handle, and the staleness bound
// reported alongside an answer.
//
// Ingest keeps the registry's validate-whole-batch-then-apply contract
// and flushes the writer at batch end — the WAL logs whole batches, so
// batch-end flush makes the WAL's logging granularity the propagation
// handoff granularity, and a snapshot capture (which syncs) provably
// contains every logged batch.

import (
	"net/url"
	"sync/atomic"

	"repro/internal/concurrent"
)

// bufferedServing is the process-wide serving-mode switch ServingNew
// consults: when set, families with a buffered variant serve it
// instead of the atomic one. cmd/sketchd sets it from
// -concurrent-ingest before recovery or traffic.
var bufferedServing atomic.Bool

// SetBufferedServing selects (true) or deselects (false) the
// local-buffer/global-propagation serving variants for new server
// entries. Set before creating or recovering entries; flipping it
// midway only affects sketches created afterwards.
func SetBufferedServing(on bool) { bufferedServing.Store(on) }

// BufferedServing reports whether buffered serving variants are
// selected.
func BufferedServing() bool { return bufferedServing.Load() }

// bufferedOver builds a NewServingBuffered from the constructor of the
// global it buffers (the family's NewServing, or New where the
// propagator owns a plain sketch), so the parameters are validated and
// the shape resolved by that constructor alone.
func bufferedOver[G, B any](global func(Params) (any, error), buffer func(G, int) B) func(Params) (any, error) {
	return func(p Params) (any, error) {
		inst, err := global(p)
		if err != nil {
			return nil, err
		}
		g, _, err := cast[G](inst)
		if err != nil {
			return nil, err
		}
		return buffer(g, concurrent.DefaultWriterBuffer), nil
	}
}

// servingIngest builds a Serve.Ingest over both serving variants of a
// family: one branch sends an atomic instance straight to its ingest
// closure; a buffered instance B lends a pooled writer handle W to the
// same builder's closure over the writer type, then flushes and
// returns it. A rejected batch buffered nothing, so the flush is then
// a no-op.
func servingIngest[B interface {
	PooledWriter() W
	ReleaseWriter(W)
}, W interface{ Flush() }](atomic, writer func(any, [][]byte) error) func(any, [][]byte) error {
	return func(inst any, items [][]byte) error {
		b, ok := inst.(B)
		if !ok {
			return atomic(inst, items)
		}
		w := b.PooledWriter()
		err := writer(w, items)
		w.Flush()
		b.ReleaseWriter(w)
		return err
	}
}

// withStaleness annotates a buffered instance's answer with the
// consistency contract: reads are wait-free and may miss at most
// staleness_bound items still in writer buffers. Any other instance's
// answer passes through untouched.
func withStaleness(query func(any, url.Values) (map[string]any, error)) func(any, url.Values) (map[string]any, error) {
	return func(inst any, params url.Values) (map[string]any, error) {
		m, err := query(inst, params)
		if b, ok := inst.(interface{ StalenessBound() int }); ok && err == nil {
			m["staleness_bound"] = b.StalenessBound()
		}
		return m, err
	}
}

// merger is the method every serving variant of a family shares for
// absorbing a decoded plain peer S; Serve.Merge is its method
// expression.
type merger[S any] interface{ Merge(S) error }
