// Package core defines the unifying summary abstraction that the paper
// surveys: a sketch is a compact data structure with an update
// operation (the streaming model) and, where the literature supports
// it, a merge operation (the distributed model of Mergeable Summaries,
// PODS 2012). It also hosts the shared serialization envelope and the
// measurement helpers used by the experiment harness.
//
// Concrete sketches live in their own packages (internal/bloom,
// internal/cardinality, …) and are re-exported through the public
// facade package at the repository root.
package core

import "errors"

// ErrIncompatible is returned by Merge implementations when the two
// sketches were built with different shapes or seeds. Merging such
// sketches would silently corrupt estimates, so every sketch in this
// module checks compatibility first.
var ErrIncompatible = errors.New("sketch: incompatible sketches cannot be merged")

// ErrCorrupt is returned by UnmarshalBinary implementations when the
// input bytes are not a valid serialization.
var ErrCorrupt = errors.New("sketch: corrupt serialization")

// Updater is the streaming half of the summary abstraction: process
// one item at a time, in one pass, in small space.
type Updater interface {
	// Update folds one item (as bytes) into the summary.
	Update(item []byte)
}
