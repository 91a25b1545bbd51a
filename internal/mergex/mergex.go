// Package mergex provides a parallel binary tree-merge engine for
// same-shape sketches. Folding N sketches serially costs N−1
// sequential merges on one core; the tree reduction performs the same
// N−1 merges in ⌈log₂N⌉ rounds, with the merges inside a round
// independent and spread across GOMAXPROCS goroutines. The grouping is
// the same at every GOMAXPROCS, so a result never depends on the
// machine's core count. For associative merges (counter addition,
// bitwise OR, register max) it also equals the serial fold's; compactor
// and digest merges (KLL, REQ, t-digest) are not exactly associative,
// and for them the tree's grouping is the definition of the result.
//
// The fan-in pattern appears wherever distributed summaries come home
// as instances: registry.MergeEnvelopes (a coordinator's gathered read,
// sketchcli merge over snapshot files, the server's bundle-merge
// endpoint) for every family whose envelopes do not merge as bytes —
// the cell-wise ones are folded on the wire there and never decoded —
// and the E14 ad-reach union and the E24 federated aggregation round.
package mergex

import (
	"errors"
	"runtime"
	"sync"
)

// ErrNoItems is returned by Tree when called with an empty slice.
var ErrNoItems = errors.New("mergex: no items to merge")

// Tree reduces items to one by a parallel binary tree of pairwise
// merges and returns the result (items[0], which accumulates the
// reduction). merge(dst, src) must fold src into dst; it is never
// called twice concurrently with the same dst or src, so ordinary
// single-threaded sketch merges need no locking. Items are mutated —
// callers that still need the inputs pass clones.
//
// Round r merges items[i+2^r] into items[i] for every i that is a
// multiple of 2^(r+1); the merges of one round run concurrently on up
// to GOMAXPROCS goroutines. On the first merge error the engine
// finishes the in-flight round and returns that error (the items are
// then partially merged and should be discarded).
func Tree[T any](items []T, merge func(dst, src T) error) (T, error) {
	var zero T
	if len(items) == 0 {
		return zero, ErrNoItems
	}
	workers := runtime.GOMAXPROCS(0)
	for stride := 1; stride < len(items); stride *= 2 {
		// Collect this round's independent pairs: dst i, src i+stride.
		step := 2 * stride
		npairs := 0
		for i := 0; i+stride < len(items); i += step {
			npairs++
		}
		if npairs == 0 {
			continue
		}
		w := workers
		if w > npairs {
			w = npairs
		}
		if w <= 1 {
			// One worker (or one pair): skip the goroutine machinery.
			for i := 0; i+stride < len(items); i += step {
				if err := merge(items[i], items[i+stride]); err != nil {
					return zero, err
				}
			}
			continue
		}
		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
		)
		for worker := 0; worker < w; worker++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				// Worker j handles pairs j, j+w, j+2w, … — a static
				// partition; merges within a round are uniform enough
				// that work stealing would buy little.
				for p := worker; p < npairs; p += w {
					i := p * step
					if err := merge(items[i], items[i+stride]); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}(worker)
		}
		wg.Wait()
		if firstErr != nil {
			return zero, firstErr
		}
	}
	return items[0], nil
}
