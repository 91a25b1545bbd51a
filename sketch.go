// Package sketch is the public facade of the library: a single import
// exposing every data summary surveyed in "Gems of PODS: Applications
// of Sketching and Pathways to Impact" (Cormode, PODS 2023) — set
// membership (Bloom), approximate counting (Morris, Nelson–Yu),
// distinct counting (Flajolet–Martin, LogLog, HyperLogLog, HLL++, KMV),
// frequency estimation and heavy hitters (Count-Min, Count Sketch,
// Misra–Gries, SpaceSaving, Boyer–Moore), second-moment estimation
// (AMS), quantiles (MRL, GK, q-digest, KLL, t-digest), sampling
// (reservoir, weighted, L0), dimensionality reduction (dense and sparse
// JL), similarity search (MinHash/LSH, SimHash, p-stable), graph
// connectivity sketches (AGM), privacy-preserving collection (RAPPOR,
// private count-mean, DP Count-Min), adversarially robust wrappers, and
// sketched gradient compression (FetchSGD).
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
// The types here are aliases of the implementation packages under
// internal/, so the facade adds no indirection cost.
package sketch

import (
	"fmt"

	"repro/internal/ams"
	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/fetchsgd"
	"repro/internal/frequency"
	"repro/internal/graphsketch"
	"repro/internal/jl"
	"repro/internal/kernel"
	"repro/internal/lsh"
	"repro/internal/matrix"
	"repro/internal/privacy"
	"repro/internal/quantile"
	"repro/internal/registry"
	"repro/internal/robust"
	"repro/internal/sample"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/window"
)

// Shared error values and contract types.
var (
	// ErrIncompatible is returned by every Merge when shapes or seeds
	// differ.
	ErrIncompatible = core.ErrIncompatible
	// ErrCorrupt is returned by every UnmarshalBinary on bad input.
	ErrCorrupt = core.ErrCorrupt
)

// Spec is the (ε, δ) accuracy contract used by spec-driven
// constructors.
type Spec = core.Spec

// Updater is the minimal streaming interface every sketch satisfies.
type Updater = core.Updater

// Set membership (Bloom 1970).
type (
	// BloomFilter is the classic Bloom filter.
	BloomFilter = bloom.Filter
	// CountingBloomFilter supports deletions via small counters.
	CountingBloomFilter = bloom.CountingFilter
	// BlockedBloomFilter confines each item's k bits to one 512-bit
	// cache-line block (Putze–Sanders–Singler): one memory access per
	// Add/Contains at a slightly higher false-positive rate.
	BlockedBloomFilter = bloom.BlockedFilter
)

// NewBloom creates a Bloom filter with m bits and k hash functions.
func NewBloom(m uint64, k int, seed uint64) *BloomFilter { return bloom.New(m, k, seed) }

// NewBloomWithEstimates sizes a Bloom filter for n items at false
// positive rate p.
func NewBloomWithEstimates(n uint64, p float64, seed uint64) *BloomFilter {
	return bloom.NewWithEstimates(n, p, seed)
}

// NewCountingBloom creates a counting Bloom filter.
func NewCountingBloom(m uint64, k int, seed uint64) *CountingBloomFilter {
	return bloom.NewCounting(m, k, seed)
}

// NewBlockedBloom creates a cache-line-blocked Bloom filter with at
// least m bits (rounded up to whole 512-bit blocks) and k probes.
func NewBlockedBloom(m uint64, k int, seed uint64) *BlockedBloomFilter {
	return bloom.NewBlocked(m, k, seed)
}

// NewBlockedBloomWithEstimates sizes a blocked Bloom filter for n items
// at target false-positive rate p (realized FPR lands slightly above p
// — the blocking penalty; see bloom.TheoreticalBlockedFPR).
func NewBlockedBloomWithEstimates(n uint64, p float64, seed uint64) *BlockedBloomFilter {
	return bloom.NewBlockedWithEstimates(n, p, seed)
}

// Approximate counting (Morris 1977; Nelson–Yu PODS 2022).
type (
	// MorrisCounter counts n events in O(log log n) bits.
	MorrisCounter = counter.Morris
	// NelsonYuCounter adds an (ε, δ) contract via median amplification.
	NelsonYuCounter = counter.NelsonYu
)

// NewMorris creates a base-2 Morris counter.
func NewMorris(seed uint64) *MorrisCounter { return counter.NewMorris(seed) }

// NewMorrisBase creates a Morris counter with accuracy base b > 1.
func NewMorrisBase(base float64, seed uint64) *MorrisCounter {
	return counter.NewMorrisBase(base, seed)
}

// NewNelsonYu creates an (ε, δ) approximate counter.
func NewNelsonYu(eps, delta float64, seed uint64) *NelsonYuCounter {
	return counter.NewNelsonYu(eps, delta, seed)
}

// Distinct counting (F0): the FM → LogLog → HLL lineage plus KMV.
type (
	// FMSketch is Flajolet–Martin probabilistic counting (PCSA, 1983).
	FMSketch = cardinality.FM
	// LogLogSketch is the Durand–Flajolet LogLog counter (2003).
	LogLogSketch = cardinality.LogLog
	// HLLSketch is HyperLogLog (2007) with 6-bit packed registers.
	HLLSketch = cardinality.HLL
	// HLLPPSketch is HyperLogLog++ with a sparse small-cardinality mode.
	HLLPPSketch = cardinality.HLLPP
	// KMVSketch is the bottom-k distinct counter with set operations.
	KMVSketch = cardinality.KMV
	// ThetaSketch is the DataSketches-style adaptive-threshold sketch
	// with full set algebra (Union/Intersect/AnotB return sketches).
	ThetaSketch = cardinality.Theta
)

// NewFM creates a PCSA sketch with m bitmaps (power of two).
func NewFM(m int, seed uint64) *FMSketch { return cardinality.NewFM(m, seed) }

// NewLogLog creates a LogLog sketch with 2^p registers.
func NewLogLog(p uint8, seed uint64) *LogLogSketch { return cardinality.NewLogLog(p, seed) }

// NewHLL creates a HyperLogLog sketch with 2^p registers.
func NewHLL(p uint8, seed uint64) *HLLSketch { return cardinality.NewHLL(p, seed) }

// NewHLLPP creates an HLL++ sketch with sparse low-cardinality mode.
func NewHLLPP(p uint8, seed uint64) *HLLPPSketch { return cardinality.NewHLLPP(p, seed) }

// NewKMV creates a bottom-k sketch supporting intersections and
// Jaccard estimates.
func NewKMV(k int, seed uint64) *KMVSketch { return cardinality.NewKMV(k, seed) }

// NewTheta creates a theta sketch with nominal capacity k.
func NewTheta(k int, seed uint64) *ThetaSketch { return cardinality.NewTheta(k, seed) }

// Frequency estimation and heavy hitters.
type (
	// CountMin is the Cormode–Muthukrishnan Count-Min sketch (L1 bound).
	CountMin = frequency.CountMin
	// CountSketch is the Charikar–Chen–Farach-Colton sketch (L2 bound).
	CountSketch = frequency.CountSketch
	// MisraGries is the deterministic k-counter frequent-items summary.
	MisraGries = frequency.MisraGries
	// SpaceSaving is the Metwally et al. top-k counter summary.
	SpaceSaving = frequency.SpaceSaving
	// Majority is Boyer–Moore majority voting.
	Majority = frequency.Majority
	// DyadicCountMin answers range counts and quantiles over integers.
	DyadicCountMin = frequency.DyadicCountMin
	// HeavyHitter is one reported item with its estimated count.
	HeavyHitter = frequency.Entry
	// SFSketch is the two-stage Slim-Fat sketch: fat stage absorbs
	// updates, slim stage ships on the wire.
	SFSketch = frequency.SFSketch
)

// NewCountMin creates a width×depth Count-Min sketch.
func NewCountMin(width, depth int, seed uint64) *CountMin {
	return frequency.NewCountMin(width, depth, seed)
}

// NewCountMinWithSpec sizes a Count-Min sketch from an (ε, δ) contract.
func NewCountMinWithSpec(spec Spec, seed uint64) (*CountMin, error) {
	return frequency.NewCountMinWithSpec(spec, seed)
}

// NewCountMinFused creates a Count-Min sketch in the fused cache-line
// layout: the depth counters an item touches live in depth adjacent
// cache lines instead of depth distant rows (width rounds up to a
// multiple of 8; depth ≤ 21). Fused and standard sketches address
// different cells and do not merge with each other.
func NewCountMinFused(width, depth int, seed uint64) *CountMin {
	return frequency.NewCountMinLayout(frequency.Layout{Width: width, Depth: depth, Mode: frequency.Fused, Seed: seed})
}

// NewCountSketchFused creates a Count Sketch in the fused cache-line
// layout (width rounds up to a multiple of 8; depth rounds odd, ≤ 21).
func NewCountSketchFused(width, depth int, seed uint64) *CountSketch {
	return frequency.NewCountSketchLayout(frequency.Layout{Width: width, Depth: depth, Mode: frequency.Fused, Seed: seed})
}

// NewCountSketch creates a width×depth Count Sketch (depth ≤ 63; even
// depths are raised by one so the median is unambiguous).
func NewCountSketch(width, depth int, seed uint64) *CountSketch {
	return frequency.NewCountSketch(width, depth, seed)
}

// NewSFSketch creates a two-stage SF-sketch: a slimWidth×slimDepth
// slim stage (the wire representation) backed by a fatWidth×fatDepth
// fat stage that absorbs every update. MarshalSlim ships the slim
// stage alone — near-fat accuracy at a fraction of the bytes.
func NewSFSketch(slimWidth, slimDepth, fatWidth, fatDepth int, seed uint64) *SFSketch {
	return frequency.NewSFSketch(slimWidth, slimDepth, fatWidth, fatDepth, seed)
}

// NewMisraGries creates a k-counter Misra–Gries summary.
func NewMisraGries(k int) *MisraGries { return frequency.NewMisraGries(k) }

// NewSpaceSaving creates a k-counter SpaceSaving summary.
func NewSpaceSaving(k int) *SpaceSaving { return frequency.NewSpaceSaving(k) }

// NewMajority creates a Boyer–Moore majority voter.
func NewMajority() *Majority { return frequency.NewMajority() }

// NewDyadicCountMin creates a dyadic Count-Min over [0, 2^levels).
func NewDyadicCountMin(levels, width, depth int, seed uint64) *DyadicCountMin {
	return frequency.NewDyadicCountMin(levels, width, depth, seed)
}

// Second frequency moment (AMS 1996).
type AMSSketch = ams.Sketch

// NewAMS creates an AMS tug-of-war sketch with median groups of
// averaged estimators.
func NewAMS(groups, perGroup int, seed uint64) *AMSSketch { return ams.New(groups, perGroup, seed) }

// NewAMSWithSpec sizes an AMS sketch from an (ε, δ) contract.
func NewAMSWithSpec(spec Spec, seed uint64) (*AMSSketch, error) {
	return ams.NewWithSpec(spec, seed)
}

// Quantiles: the MRL → GK → q-digest → KLL lineage plus t-digest.
type (
	// GKSummary is the Greenwald–Khanna deterministic summary.
	GKSummary = quantile.GK
	// KLLSketch is the near-optimal Karnin–Lang–Liberty sketch.
	KLLSketch = quantile.KLL
	// QDigest is the mergeable integer-domain q-digest.
	QDigest = quantile.QDigest
	// TDigest is Dunning's tail-accurate centroid digest.
	TDigest = quantile.TDigest
	// MRLSummary is the Manku–Rajagopalan–Lindsay buffer algorithm.
	MRLSummary = quantile.MRL
	// REQSketch is the relative-error quantile sketch (PODS 2021).
	REQSketch = quantile.REQ
	// ExactQuantiles is the Θ(n) ground-truth baseline.
	ExactQuantiles = quantile.Exact
)

// NewGK creates a GK summary with rank error eps.
func NewGK(eps float64) *GKSummary { return quantile.NewGK(eps) }

// NewKLL creates a KLL sketch with top-compactor capacity k.
func NewKLL(k int, seed uint64) *KLLSketch { return quantile.NewKLL(k, seed) }

// NewQDigest creates a q-digest over [0, 2^logU) with compression k.
func NewQDigest(logU uint8, k uint64) *QDigest { return quantile.NewQDigest(logU, k) }

// NewTDigest creates a t-digest with the given compression.
func NewTDigest(compression float64) *TDigest { return quantile.NewTDigest(compression) }

// NewMRL creates an MRL summary with b buffers of capacity k.
func NewMRL(b, k int, seed uint64) *MRLSummary { return quantile.NewMRL(b, k, seed) }

// NewREQ creates a relative-error quantile sketch favoring the upper
// tail, with section size k.
func NewREQ(k int, seed uint64) *REQSketch { return quantile.NewREQ(k, seed) }

// NewExactQuantiles creates the exact baseline.
func NewExactQuantiles() *ExactQuantiles { return quantile.NewExact() }

// Sampling.
type (
	// Reservoir is uniform reservoir sampling (Algorithm R).
	Reservoir = sample.Reservoir
	// WeightedReservoir is Efraimidis–Spirakis weighted sampling.
	WeightedReservoir = sample.WeightedReservoir
	// L0Sampler samples the support of a turnstile stream.
	L0Sampler = sample.L0Sampler
	// LpSampler samples indexes with probability proportional to
	// |f(i)|^p (PODS 2011 Lp samplers).
	LpSampler = sample.LpSampler
	// SparseRecovery recovers s-sparse turnstile vectors exactly.
	SparseRecovery = sample.SparseRecovery
)

// NewReservoir creates a k-item uniform reservoir.
func NewReservoir(k int, seed uint64) *Reservoir { return sample.NewReservoir(k, seed) }

// NewWeightedReservoir creates a k-item weighted reservoir.
func NewWeightedReservoir(k int, seed uint64) *WeightedReservoir {
	return sample.NewWeightedReservoir(k, seed)
}

// NewL0Sampler creates an L0 sampler with per-level sparsity s.
func NewL0Sampler(s int, seed uint64) *L0Sampler { return sample.NewL0Sampler(s, seed) }

// NewSparseRecovery creates an s-sparse recovery structure.
func NewSparseRecovery(s int, seed uint64) *SparseRecovery {
	return sample.NewSparseRecovery(s, seed)
}

// NewLpSampler creates a precision sampler for exponent p with a
// width×depth scaled Count-Sketch.
func NewLpSampler(p float64, width, depth int, seed uint64) *LpSampler {
	return sample.NewLpSampler(p, width, depth, seed)
}

// Dimensionality reduction (Johnson–Lindenstrauss).
type (
	// JLTransform is the common interface of all JL projections.
	JLTransform = jl.Transform
	// DenseJL is a dense Gaussian or Rademacher projection.
	DenseJL = jl.Dense
	// SparseJL is the Kane–Nelson sparse transform.
	SparseJL = jl.Sparse
)

// NewGaussianJL creates a dense Gaussian projection d→k.
func NewGaussianJL(d, k int, seed uint64) *DenseJL { return jl.NewGaussian(d, k, seed) }

// NewRademacherJL creates a dense ±1 projection d→k.
func NewRademacherJL(d, k int, seed uint64) *DenseJL { return jl.NewRademacher(d, k, seed) }

// NewSparseJL creates a sparse projection with s nonzeros per column.
func NewSparseJL(d, k, s int, seed uint64) *SparseJL { return jl.NewSparse(d, k, s, seed) }

// JLTargetDim returns the output dimension preserving pairwise
// distances among n points within (1±eps).
func JLTargetDim(n int, eps float64) int { return jl.TargetDim(n, eps) }

// Similarity search (LSH).
type (
	// MinHash is a Jaccard-similarity signature.
	MinHash = lsh.MinHash
	// LSHIndex is a banded MinHash index.
	LSHIndex = lsh.Index
	// SimHash is random-hyperplane cosine LSH.
	SimHash = lsh.SimHash
	// EuclideanLSH is p-stable LSH for Euclidean distance.
	EuclideanLSH = lsh.EuclideanLSH
)

// NewMinHash creates a k-coordinate MinHash signature.
func NewMinHash(k int, seed uint64) *MinHash { return lsh.NewMinHash(k, seed) }

// NewLSHIndex creates a banded index (signature length = bands·rows).
func NewLSHIndex(bands, rows int) *LSHIndex { return lsh.NewIndex(bands, rows) }

// NewSimHash creates a SimHash over d-dimensional vectors.
func NewSimHash(d, bits int, seed uint64) *SimHash { return lsh.NewSimHash(d, bits, seed) }

// NewEuclideanLSH creates p-stable LSH with bucket width w.
func NewEuclideanLSH(d, k int, w float64, seed uint64) *EuclideanLSH {
	return lsh.NewEuclideanLSH(d, k, w, seed)
}

// Graph sketching (Ahn–Guha–McGregor).
type GraphSketch = graphsketch.Sketch

// NewGraphSketch creates a connectivity sketch for n vertices.
func NewGraphSketch(n, rounds int, seed uint64) *GraphSketch {
	return graphsketch.New(n, rounds, seed)
}

// Privacy-preserving collection.
type (
	// RandomizedResponse is the Warner 1965 bit mechanism.
	RandomizedResponse = privacy.RandomizedResponse
	// RAPPOR is the Bloom-filter + randomized-response encoder/decoder.
	RAPPOR = privacy.RAPPOR
	// PrivateCMS is the Apple-style private count-mean sketch.
	PrivateCMS = privacy.PrivateCMS
	// DPCountMin is a Count-Min sketch released with Laplace noise.
	DPCountMin = privacy.DPCountMin
	// LaplaceMechanism adds ε-DP Laplace noise to numeric releases.
	LaplaceMechanism = privacy.LaplaceMechanism
	// GaussianMechanism adds (ε, δ)-DP Gaussian noise.
	GaussianMechanism = privacy.GaussianMechanism
)

// NewRandomizedResponse creates an ε-DP bit mechanism.
func NewRandomizedResponse(eps float64, seed uint64) *RandomizedResponse {
	return privacy.NewRandomizedResponse(eps, seed)
}

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

// NewLaplaceMechanism creates an ε-DP Laplace mechanism.
func NewLaplaceMechanism(eps, sensitivity float64, seed uint64) *LaplaceMechanism {
	return privacy.NewLaplaceMechanism(eps, sensitivity, seed)
}

// NewGaussianMechanism creates an (ε, δ)-DP Gaussian mechanism.
func NewGaussianMechanism(eps, delta, sensitivity float64, seed uint64) *GaussianMechanism {
	return privacy.NewGaussianMechanism(eps, delta, sensitivity, seed)
}

// Adversarial robustness (BJWY sketch switching plus the composable
// defense wrappers the red-team harness in internal/robust/attack
// measures).
type (
	// RobustF2 is a robust second-moment estimator.
	RobustF2 = robust.F2
	// RobustDistinct is a robust distinct counter (HLL copies under
	// sketch switching).
	RobustDistinct = robust.Distinct
	// RobustEstimator is the streaming distinct-count surface the
	// attack harness targets and the defense wrappers compose over.
	RobustEstimator = robust.Estimator
	// SwitchingEstimator rotates through lambda independent copies,
	// re-basing whenever the estimate drifts by eps.
	SwitchingEstimator = robust.Switching
	// NoisyEstimator releases multiplicatively rounded estimates from
	// a deterministic secret-phase grid.
	NoisyEstimator = robust.Noisy
	// SubsampledEstimator answers from a Bernoulli sample of the
	// stream, scaling estimates by 1/q.
	SubsampledEstimator = robust.Subsampled
)

// NewRobustDistinct creates a robust distinct counter with lambda HLL
// copies of precision p.
func NewRobustDistinct(eps float64, lambda int, p uint8, seed uint64) *RobustDistinct {
	return robust.NewDistinct(eps, lambda, p, seed)
}

// NewRobustF2 creates an adversarially robust F2 estimator with lambda
// independent copies.
func NewRobustF2(eps float64, lambda, groups, perGroup int, seed uint64) *RobustF2 {
	return robust.NewF2(eps, lambda, groups, perGroup, seed)
}

// RobustLambdaFor sizes the copy count for a stream with F2 up to
// maxF2.
func RobustLambdaFor(eps, maxF2 float64) int { return robust.LambdaFor(eps, maxF2) }

// NewDefendedDistinct creates a robust distinct counter with every
// in-sketch defense engaged: lambda switching HLL copies of precision
// p, rho-rounded noisy release, and Bernoulli-q subsampled ingest
// (rho = 0 and q = 1 disable those layers).
func NewDefendedDistinct(eps float64, lambda int, p uint8, seed uint64, rho, q float64) *RobustDistinct {
	return robust.NewDefendedDistinct(eps, lambda, p, seed, rho, q)
}

// NewSwitchingHLL wraps lambda HLL copies of precision p under sketch
// switching with drift threshold eps.
func NewSwitchingHLL(eps float64, lambda int, p uint8, seed uint64) *SwitchingEstimator {
	return robust.NewSwitchingHLL(eps, lambda, p, seed)
}

// NewSwitchingKMV wraps lambda KMV copies retaining k minima under
// sketch switching with drift threshold eps.
func NewSwitchingKMV(eps float64, lambda, k int, seed uint64) *SwitchingEstimator {
	return robust.NewSwitchingKMV(eps, lambda, k, seed)
}

// NewNoisyEstimator wraps any estimator in multiplicative rho-rounded
// release on a secret-phase grid.
func NewNoisyEstimator(inner RobustEstimator, rho float64, seed uint64) *NoisyEstimator {
	return robust.NewNoisy(inner, rho, seed)
}

// NewSubsampledEstimator wraps any estimator in Bernoulli-q subsampled
// answering: each item is hashed into or out of the sample, and
// estimates scale by 1/q.
func NewSubsampledEstimator(inner RobustEstimator, q float64, seed uint64) *SubsampledEstimator {
	return robust.NewSubsampled(inner, q, seed)
}

// Gradient compression (FetchSGD).
type GradSketch = fetchsgd.GradSketch

// NewGradSketch creates a Count-Sketch gradient compressor.
func NewGradSketch(rows, cols int, seed uint64) *GradSketch {
	return fetchsgd.NewGradSketch(rows, cols, seed)
}

// Concurrency (DataSketches-style).
type (
	// ShardedHLL is a concurrent HLL with per-shard writers.
	ShardedHLL = concurrent.ShardedHLL
	// AtomicCountMin is a lock-free Count-Min sketch.
	AtomicCountMin = concurrent.AtomicCountMin
	// AtomicBlockedBloom is a lock-free cache-line-blocked Bloom filter.
	AtomicBlockedBloom = concurrent.AtomicBlockedBloom
)

// NewShardedHLL creates a concurrent HLL with the given shard count.
func NewShardedHLL(shards int, p uint8, seed uint64) *ShardedHLL {
	return concurrent.NewShardedHLL(shards, p, seed)
}

// NewAtomicCountMin creates a lock-free Count-Min sketch.
func NewAtomicCountMin(width, depth int, seed uint64) *AtomicCountMin {
	return concurrent.NewAtomicCountMin(width, depth, seed)
}

// NewAtomicBlockedBloom creates a lock-free blocked Bloom filter that
// addresses the same bits as NewBlockedBloom with equal shape and seed.
func NewAtomicBlockedBloom(m uint64, k int, seed uint64) *AtomicBlockedBloom {
	return concurrent.NewAtomicBlockedBloom(m, k, seed)
}

// Serving (sketchd): the HTTP layer over the library — a namespace of
// named sketches with batched ingest, queries, mergeable-summary
// exchange, and /debug/statsz counters. cmd/sketchd is the daemon;
// experiment E25 measures its ingest throughput scaling.
type (
	// SketchServer is the sketchd HTTP server; mount Handler() on any
	// net/http server.
	SketchServer = server.Server
	// ServerCreateRequest is the JSON body of sketch creation.
	ServerCreateRequest = server.CreateRequest
	// ServerEntry is one named sketch behind the registry.
	ServerEntry = server.Entry
	// ServerStatsz is the /debug/statsz response document.
	ServerStatsz = server.Statsz
	// ServerClient is the Go client for sketchd.
	ServerClient = client.Client
)

// NewSketchServer creates an empty sketchd server.
func NewSketchServer() *SketchServer { return server.New() }

// NewServerClient creates a sketchd client for a base URL like
// "http://127.0.0.1:7600".
func NewServerClient(base string) *ServerClient { return client.New(base) }

// NewServerEntry builds a server registry entry from creation
// parameters (exposed for embedding sketchd-style registries).
func NewServerEntry(req ServerCreateRequest) (*ServerEntry, error) { return server.NewEntry(req) }

// The self-describing type system: every sketch family registers a
// descriptor (wire tag, name, parameter schema, constructor, decoder)
// in internal/registry, and these entry points make any family
// constructible by name and any serialized envelope decodable without
// knowing its concrete type.

// TypeParam is one parameter of a sketch type's schema.
type TypeParam struct {
	Name    string
	Doc     string
	Default float64
	Min     float64
	Max     float64
	Float   bool // false: integer-valued
}

// TypeInfo describes one registered sketch family.
type TypeInfo struct {
	Name      string // canonical name accepted by New ("hll", "kll", …)
	Family    string // grouping ("cardinality", "quantile", …)
	Doc       string
	Tag       byte   // GSK1 envelope tag
	Input     string // streaming ingest line format ("" if none)
	Mergeable bool
	Servable  bool // creatable in sketchd
	Params    []TypeParam
}

// Types lists every registered sketch family sorted by name.
func Types() []TypeInfo {
	ds := registry.All()
	out := make([]TypeInfo, len(ds))
	for i, d := range ds {
		params := make([]TypeParam, len(d.Params))
		for j, p := range d.Params {
			params[j] = TypeParam{Name: p.Name, Doc: p.Doc, Default: p.Def, Min: p.Min, Max: p.Max, Float: p.Float}
		}
		input := ""
		if d.Input != 0 {
			input = d.Input.String()
		}
		out[i] = TypeInfo{
			Name:      d.Name,
			Family:    d.Family,
			Doc:       d.Doc,
			Tag:       d.Tag,
			Input:     input,
			Mergeable: d.Mergeable(),
			Servable:  d.Servable(),
			Params:    params,
		}
	}
	return out
}

// New constructs a sketch by registry name with named parameters
// (absent entries take the descriptor defaults — see Types). The
// result is the family's concrete type, e.g. *HLL for "hll"; callers
// typically use it through Updater / Merge / MarshalBinary.
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
// result is the family's concrete type (e.g. *KLL, *BloomFilter);
// unknown or retired tags and malformed payloads return ErrCorrupt.
func Decode(data []byte) (any, error) {
	inst, _, err := registry.Decode(data)
	return inst, err
}

// DecodeInfo is like Decode but also reports the decoded family.
func DecodeInfo(data []byte) (any, string, error) {
	inst, d, err := registry.Decode(data)
	if err != nil {
		return nil, "", err
	}
	return inst, d.Name, nil
}

// Kernel approximation (TensorSketch, cite [40]).
type TensorSketch = kernel.TensorSketch

// NewTensorSketch creates a polynomial-kernel feature map of the given
// degree with output dimension k (a power of two).
func NewTensorSketch(d, k, degree int, seed uint64) *TensorSketch {
	return kernel.NewTensorSketch(d, k, degree, seed)
}

// Matrix sketching (cite [48]).
type (
	// FrequentDirections is Liberty's deterministic matrix sketch.
	FrequentDirections = matrix.FD
	// AMM approximates AᵀB through a shared Count-Sketch projection.
	AMM = matrix.AMM
)

// NewFrequentDirections creates an ℓ-direction sketch over d columns.
func NewFrequentDirections(l, d int, seed uint64) *FrequentDirections {
	return matrix.NewFD(l, d, seed)
}

// NewAMM creates an approximate matrix multiplier compressing the
// shared row dimension to k.
func NewAMM(k, dA, dB int, seed uint64) *AMM { return matrix.NewAMM(k, dA, dB, seed) }

// Sliding windows (exponential histograms).
type (
	// EH counts events over a sliding window with relative error 1/k.
	EH = window.EH
	// WindowedHLL tracks sliding-window distinct counts via rotating
	// HLL panes.
	WindowedHLL = window.WindowedHLL
	// WindowedTopK tracks sliding-window heavy hitters via rotating
	// SpaceSaving panes.
	WindowedTopK = window.WindowedTopK
)

// NewEH creates an exponential histogram over a window of W ticks.
func NewEH(windowTicks uint64, k int) *EH { return window.NewEH(windowTicks, k) }

// NewWindowedHLL creates a sliding-window distinct counter.
func NewWindowedHLL(windowTicks uint64, panes int, precision uint8, seed uint64) *WindowedHLL {
	return window.NewWindowedHLL(windowTicks, panes, precision, seed)
}

// NewWindowedTopK creates a sliding-window heavy-hitter tracker.
func NewWindowedTopK(windowTicks uint64, panes, k int) *WindowedTopK {
	return window.NewWindowedTopK(windowTicks, panes, k)
}
