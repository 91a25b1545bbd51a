// Package lsh implements locality-sensitive hashing (Indyk–Motwani
// 1998), the paper's example of sketches powering similarity search —
// from early multimedia image search to today's embedding retrieval:
// MinHash signatures for Jaccard similarity with a banded index,
// SimHash (random hyperplane) for cosine similarity, and p-stable
// (Gaussian) LSH for Euclidean distance. Experiment E11 reproduces the
// recall-vs-similarity S-curves.
package lsh

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hashx"
)

// MinHash is a MinHash signature accumulator: signature[i] is the
// minimum of hash_i over the elements added. For two sets,
// P[sig_A[i] == sig_B[i]] equals their Jaccard similarity, so the
// fraction of agreeing coordinates is an unbiased similarity estimate
// with standard error 1/√(signature length).
type MinHash struct {
	sig  []uint64
	seed uint64
}

// NewMinHash creates a signature with k coordinates.
func NewMinHash(k int, seed uint64) *MinHash {
	if k < 1 {
		panic("lsh: MinHash requires k >= 1")
	}
	sig := make([]uint64, k)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	return &MinHash{sig: sig, seed: seed}
}

// Add folds a set element into the signature. Each coordinate uses an
// independent seeded hash of the element.
func (m *MinHash) Add(element []byte) {
	base := hashx.XXHash64(element, m.seed)
	// Derive the k per-coordinate hashes from one strong base hash via
	// SplitMix64 — the standard "one hash, k mixes" implementation.
	state := base
	for i := range m.sig {
		state += 0x9e3779b97f4a7c15
		h := hashx.Mix64(state)
		if h < m.sig[i] {
			m.sig[i] = h
		}
	}
}

// AddString folds a string element.
func (m *MinHash) AddString(element string) { m.Add([]byte(element)) }

// Update implements core.Updater.
func (m *MinHash) Update(item []byte) { m.Add(item) }

// Signature returns the current signature (read-only).
func (m *MinHash) Signature() []uint64 { return m.sig }

// K returns the signature length.
func (m *MinHash) K() int { return len(m.sig) }

// Similarity estimates the Jaccard similarity with another signature of
// the same shape.
func (m *MinHash) Similarity(other *MinHash) (float64, error) {
	if len(m.sig) != len(other.sig) || m.seed != other.seed {
		return 0, fmt.Errorf("%w: minhash shape mismatch", core.ErrIncompatible)
	}
	agree := 0
	for i := range m.sig {
		if m.sig[i] == other.sig[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(m.sig)), nil
}

// Merge combines with another signature: the coordinate-wise minimum is
// exactly the signature of the union of the two sets.
func (m *MinHash) Merge(other *MinHash) error {
	if len(m.sig) != len(other.sig) || m.seed != other.seed {
		return fmt.Errorf("%w: minhash shape mismatch", core.ErrIncompatible)
	}
	for i, v := range other.sig {
		if v < m.sig[i] {
			m.sig[i] = v
		}
	}
	return nil
}

// MarshalBinary serializes the signature.
func (m *MinHash) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagMinHash, 1)
	w.U64(m.seed)
	w.U64Slice(m.sig)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a signature serialized by MarshalBinary.
func (m *MinHash) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagMinHash, 1)
	if err != nil {
		return err
	}
	seed := r.U64()
	sig := r.U64Slice()
	if err := r.Done(); err != nil {
		return err
	}
	if len(sig) < 1 {
		return fmt.Errorf("%w: empty minhash signature", core.ErrCorrupt)
	}
	m.seed, m.sig = seed, sig
	return nil
}

// Index is a banded LSH index over MinHash signatures: signatures are
// cut into b bands of r rows; two items become candidates when any band
// hashes identically. The probability a pair with similarity s becomes
// a candidate is 1 − (1 − s^r)^b — the S-curve of experiment E11.
type Index struct {
	bands, rows int
	buckets     []map[uint64][]string // one bucket map per band
	sigs        map[string]*MinHash
}

// NewIndex creates a banded index for signatures of length bands×rows.
func NewIndex(bands, rows int) *Index {
	if bands < 1 || rows < 1 {
		panic("lsh: bands and rows must be positive")
	}
	buckets := make([]map[uint64][]string, bands)
	for i := range buckets {
		buckets[i] = make(map[uint64][]string)
	}
	return &Index{bands: bands, rows: rows, buckets: buckets, sigs: make(map[string]*MinHash)}
}

// Add indexes a signature under the given id. The signature length must
// equal bands×rows.
func (ix *Index) Add(id string, sig *MinHash) error {
	if sig.K() != ix.bands*ix.rows {
		return fmt.Errorf("%w: signature length %d, want %d", core.ErrIncompatible, sig.K(), ix.bands*ix.rows)
	}
	ix.sigs[id] = sig
	for b := 0; b < ix.bands; b++ {
		key := ix.bandKey(sig, b)
		ix.buckets[b][key] = append(ix.buckets[b][key], id)
	}
	return nil
}

func (ix *Index) bandKey(sig *MinHash, band int) uint64 {
	h := uint64(band) + 1
	for _, v := range sig.Signature()[band*ix.rows : (band+1)*ix.rows] {
		h = hashx.Mix64(h ^ v)
	}
	return h
}

// Candidates returns the ids sharing at least one band with the query
// signature (excluding exact id matches is the caller's concern).
func (ix *Index) Candidates(sig *MinHash) []string {
	seen := map[string]bool{}
	var out []string
	for b := 0; b < ix.bands; b++ {
		for _, id := range ix.buckets[b][ix.bandKey(sig, b)] {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// Query returns indexed ids whose estimated similarity to the query
// signature is at least minSim, verified against stored signatures.
func (ix *Index) Query(sig *MinHash, minSim float64) []string {
	var out []string
	for _, id := range ix.Candidates(sig) {
		if s, err := sig.Similarity(ix.sigs[id]); err == nil && s >= minSim {
			out = append(out, id)
		}
	}
	return out
}

// CandidateProbability returns the analytic S-curve value
// 1 − (1 − s^r)^b for similarity s.
func (ix *Index) CandidateProbability(s float64) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(ix.rows)), float64(ix.bands))
}
