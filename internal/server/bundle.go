package server

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	typereg "repro/internal/registry"
)

// The bundle format lets a client ship N same-type envelopes to
// POST /v1/sketch/{name}/merge in one request. The server merges them
// into one OUTSIDE the sketch lock (registry.MergeEnvelopes: as bytes
// where the family merges on the wire, else decoded and tree-merged
// across GOMAXPROCS cores), and only then absorbs the single combined
// envelope through the ordinary merge path — so the sketch's lock and the
// write-ahead log see exactly one merge, and replaying the WAL
// reproduces the same state as the N individual posts would have.
//
// Layout (little-endian, matching the GSK1 envelope convention):
//
//	"GSKB" | u32 count | count × (u32 len | GSK1 envelope bytes)

// BundleMagic prefixes a multi-envelope merge body. It is distinct
// from the per-sketch "GSK1" magic, so the merge handler can tell a
// bundle from a single envelope by its first four bytes.
const BundleMagic = "GSKB"

// maxBundleEnvelopes bounds the declared envelope count before any
// allocation, so a corrupt header can't balloon memory. The body cap
// (maxBodyBytes) bounds the real payload anyway.
const maxBundleEnvelopes = 1 << 16

// IsBundle reports whether a merge body carries the GSKB framing.
func IsBundle(body []byte) bool {
	return len(body) >= 8 && string(body[:4]) == BundleMagic
}

// CombineBundle merges the envelopes of a GSKB body into one combined
// envelope of the same type (registry.MergeEnvelopes: as bytes, folded
// into the first envelope where it lies in body — which the caller must
// therefore own, and the result may alias — or decoded and tree-merged).
// All envelopes must be of one family and the family must merge; shape
// mismatches surface the underlying core.ErrIncompatible so the HTTP
// layer maps them to 409 like any other incompatible merge.
func CombineBundle(body []byte) ([]byte, error) {
	if !IsBundle(body) {
		return nil, fmt.Errorf("%w: bundle too short or bad magic", core.ErrCorrupt)
	}
	rest := body[4:]
	count := binary.LittleEndian.Uint32(rest[:4])
	rest = rest[4:]
	if count == 0 {
		return nil, fmt.Errorf("%w: bundle with zero envelopes", core.ErrCorrupt)
	}
	if count > maxBundleEnvelopes {
		return nil, fmt.Errorf("%w: bundle declares %d envelopes (max %d)", core.ErrCorrupt, count, maxBundleEnvelopes)
	}
	envs := make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: bundle truncated in envelope %d header", core.ErrCorrupt, i)
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint32(len(rest)) < n {
			return nil, fmt.Errorf("%w: bundle envelope %d declares %d bytes, %d remain", core.ErrCorrupt, i, n, len(rest))
		}
		envs = append(envs, rest[:n:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last bundle envelope", core.ErrCorrupt, len(rest))
	}
	merged, err := typereg.MergeEnvelopes(envs)
	if errors.Is(err, typereg.ErrNotMergeable) {
		err = fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	return merged.Envelope(nil)
}
