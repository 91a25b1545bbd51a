// Package sketch is the library's front door: the handful of
// constructors its examples and command-line tool build with, plus New
// and Decode, which reach every registered family by name — set
// membership, counting, distinct counting, frequency and heavy hitters,
// moments, quantiles, sampling, dimensionality reduction, similarity
// search, graph connectivity, privacy, robustness, windows, matrix and
// gradient sketches, as surveyed in "Gems of PODS: Applications of
// Sketching and Pathways to Impact" (Cormode, PODS 2023).
//
// Every sketch follows the same conventions:
//
//   - streaming updates via Add*/Update, one pass, small space;
//   - Merge where the literature supports it (returning
//     ErrIncompatible on shape/seed mismatches), so distributed
//     aggregation is lossless per the Mergeable Summaries model;
//   - MarshalBinary/UnmarshalBinary with a tagged, versioned envelope;
//   - deterministic behaviour under an explicit seed.
//
// Each type lives in its own package under internal/ (cardinality,
// frequency, quantile, bloom, …); the names here are aliases of those,
// so the front door adds no indirection cost.
package sketch

import (
	"fmt"

	"repro/internal/ams"
	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/frequency"
	"repro/internal/graphsketch"
	"repro/internal/lsh"
	"repro/internal/privacy"
	"repro/internal/quantile"
	"repro/internal/registry"
	"repro/internal/window"
)

// Shared error values.
var (
	// ErrIncompatible is returned by every Merge when shapes or seeds
	// differ.
	ErrIncompatible = core.ErrIncompatible
	// ErrCorrupt is returned by every UnmarshalBinary on bad input.
	ErrCorrupt = core.ErrCorrupt
)

// New constructs a sketch by registry name with named parameters
// (absent entries take the descriptor defaults; `sketchcli types`
// prints every family's schema). The result is the family's concrete
// type, e.g. *HLLSketch for "hll"; callers typically use it through
// Merge / MarshalBinary.
func New(typeName string, seed uint64, params map[string]float64) (any, error) {
	d, ok := registry.Lookup(typeName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", registry.ErrUnknownType, typeName)
	}
	p, err := d.Validate(seed, params)
	if err != nil {
		return nil, err
	}
	return d.New(p)
}

// Decode deserializes any sketch envelope produced by a MarshalBinary
// in this module, dispatching on the self-describing GSK1 tag. The
// result is the family's concrete type (e.g. *KLLSketch, *BloomFilter);
// unknown or retired tags and malformed payloads return ErrCorrupt.
func Decode(data []byte) (any, error) {
	inst, _, err := registry.Decode(data)
	return inst, err
}

// BloomFilter is the classic Bloom filter (Bloom 1970).
type BloomFilter = bloom.Filter

// NewBloomWithEstimates sizes a Bloom filter for n items at false
// positive rate p.
func NewBloomWithEstimates(n uint64, p float64, seed uint64) *BloomFilter {
	return bloom.NewWithEstimates(n, p, seed)
}

// MorrisCounter counts n events in O(log log n) bits (Morris 1977).
type MorrisCounter = counter.Morris

// NewMorris creates a base-2 Morris counter.
func NewMorris(seed uint64) *MorrisCounter { return counter.NewMorris(seed) }

// NewMorrisBase creates a Morris counter with accuracy base b > 1.
func NewMorrisBase(base float64, seed uint64) *MorrisCounter {
	return counter.NewMorrisBase(base, seed)
}

// Distinct counting (F0).
type (
	// HLLSketch is HyperLogLog (2007) with 6-bit packed registers.
	HLLSketch = cardinality.HLL
	// ThetaSketch is the DataSketches-style adaptive-threshold sketch
	// with full set algebra (Union/Intersect/AnotB return sketches).
	ThetaSketch = cardinality.Theta
)

// NewHLL creates a HyperLogLog sketch with 2^p registers.
func NewHLL(p uint8, seed uint64) *HLLSketch { return cardinality.NewHLL(p, seed) }

// NewTheta creates a theta sketch with nominal capacity k.
func NewTheta(k int, seed uint64) *ThetaSketch { return cardinality.NewTheta(k, seed) }

// Frequency estimation and heavy hitters.
type (
	// CountMin is the Cormode–Muthukrishnan Count-Min sketch (L1 bound).
	CountMin = frequency.CountMin
	// SpaceSaving is the Metwally et al. top-k counter summary.
	SpaceSaving = frequency.SpaceSaving
)

// NewCountMin creates a width×depth Count-Min sketch.
func NewCountMin(width, depth int, seed uint64) *CountMin {
	return frequency.NewCountMin(width, depth, seed)
}

// NewSpaceSaving creates a k-counter SpaceSaving summary.
func NewSpaceSaving(k int) *SpaceSaving { return frequency.NewSpaceSaving(k) }

// AMSSketch is the AMS tug-of-war second-moment sketch (AMS 1996).
type AMSSketch = ams.Sketch

// NewAMS creates an AMS tug-of-war sketch with median groups of
// averaged estimators.
func NewAMS(groups, perGroup int, seed uint64) *AMSSketch { return ams.New(groups, perGroup, seed) }

// Quantiles.
type (
	// KLLSketch is the near-optimal Karnin–Lang–Liberty sketch.
	KLLSketch = quantile.KLL
	// TDigest is Dunning's tail-accurate centroid digest.
	TDigest = quantile.TDigest
	// REQSketch is the relative-error quantile sketch (PODS 2021).
	REQSketch = quantile.REQ
	// ExactQuantiles is the Θ(n) ground-truth baseline.
	ExactQuantiles = quantile.Exact
)

// NewKLL creates a KLL sketch with top-compactor capacity k.
func NewKLL(k int, seed uint64) *KLLSketch { return quantile.NewKLL(k, seed) }

// NewTDigest creates a t-digest with the given compression.
func NewTDigest(compression float64) *TDigest { return quantile.NewTDigest(compression) }

// NewREQ creates a relative-error quantile sketch favoring the upper
// tail, with section size k.
func NewREQ(k int, seed uint64) *REQSketch { return quantile.NewREQ(k, seed) }

// NewExactQuantiles creates the exact baseline.
func NewExactQuantiles() *ExactQuantiles { return quantile.NewExact() }

// Similarity search (LSH).
type (
	// MinHash is a Jaccard-similarity signature.
	MinHash = lsh.MinHash
	// LSHIndex is a banded MinHash index.
	LSHIndex = lsh.Index
	// SimHash is random-hyperplane cosine LSH.
	SimHash = lsh.SimHash
)

// NewMinHash creates a k-coordinate MinHash signature.
func NewMinHash(k int, seed uint64) *MinHash { return lsh.NewMinHash(k, seed) }

// NewLSHIndex creates a banded index (signature length = bands·rows).
func NewLSHIndex(bands, rows int) *LSHIndex { return lsh.NewIndex(bands, rows) }

// NewSimHash creates a SimHash over d-dimensional vectors.
func NewSimHash(d, bits int, seed uint64) *SimHash { return lsh.NewSimHash(d, bits, seed) }

// GraphSketch is the Ahn–Guha–McGregor connectivity sketch.
type GraphSketch = graphsketch.Sketch

// NewGraphSketch creates a connectivity sketch for n vertices.
func NewGraphSketch(n, rounds int, seed uint64) *GraphSketch {
	return graphsketch.New(n, rounds, seed)
}

// Privacy-preserving collection.
type (
	// RAPPOR is the Bloom-filter + randomized-response encoder/decoder.
	RAPPOR = privacy.RAPPOR
	// PrivateCMS is the Apple-style private count-mean sketch.
	PrivateCMS = privacy.PrivateCMS
	// DPCountMin is a Count-Min sketch released with Laplace noise.
	DPCountMin = privacy.DPCountMin
)

// NewRAPPOR creates a RAPPOR configuration (m bits, k hashes, budget ε).
func NewRAPPOR(m, k int, eps float64, seed uint64) *RAPPOR {
	return privacy.NewRAPPOR(m, k, eps, seed)
}

// NewPrivateCMS creates an Apple-style private count-mean sketch
// aggregator.
func NewPrivateCMS(width, depth int, eps float64, seed uint64) *PrivateCMS {
	return privacy.NewPrivateCMS(width, depth, eps, seed)
}

// NewDPCountMin creates a DP Count-Min sketch (release-once semantics).
func NewDPCountMin(width, depth int, eps float64, seed uint64) *DPCountMin {
	return privacy.NewDPCountMin(width, depth, eps, seed)
}

// EH counts events over a sliding window with relative error 1/k
// (exponential histogram).
type EH = window.EH

// NewEH creates an exponential histogram over a window of W ticks.
func NewEH(windowTicks uint64, k int) *EH { return window.NewEH(windowTicks, k) }
