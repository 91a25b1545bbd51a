package frequency

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hashx"
)

// SFSketch is the two-stage Slim-Fat sketch (Yang et al., "SF-sketch:
// A Two-stage Sketch for Data Streams"): a large *fat* Count-Min grid
// absorbs every update locally, and a small *slim* grid — the only
// stage that ships on the wire — is raised conditionally, one counter
// per row, never past the fat stage's current estimate of the item.
// Because the slim counters track per-item estimates instead of raw
// collision sums, a slim grid of w_s counters answers point queries
// with error close to the fat stage's (width ratio·w_s) rather than a
// plain Count-Min's at width w_s: far better accuracy per transmitted
// byte, which is the whole game for scatter-gather reads, bundles and
// federated fan-ins.
//
// Invariant (never undercount): when item e arrives with weight w, the
// fat stage is updated first, so its estimate F satisfies F ≥ f(e).
// Each slim counter c covering e is then raised to min(c+w, F) — and
// only if c < F. By induction c ≥ f(e) before the update, so both
// c+w ≥ f(e)+w and F ≥ f(e)+w keep the counter an overestimate; other
// items sharing the counter only ever see it grow. A point query is
// the minimum over the slim rows, exactly as in Count-Min.
//
// Both stages derive their row positions from ONE 64-bit hash of the
// item (the hash-once discipline of the Count-Min fast lane): the fat
// rows by double hashing h directly, the slim rows by double hashing a
// remixed copy of h, so slim-only decoders can still address queries
// from (item, seed) alone. Updates and queries are 0 allocs/op.
type SFSketch struct {
	slimL, fatL Layout   // both Derived, one seed
	slim        []uint64 // the wire stage
	fat         []uint64 // nil in a slim-only instance
	n           uint64   // total weight, both stages' streams are identical
}

// sfSlimSalt decorrelates the slim stage's double-hashing stream from
// the fat stage's: the slim rows address from Mix64(h ^ sfSlimSalt)
// rather than h itself, so an item's slim buckets are independent of
// its fat buckets while still deriving from the single item hash.
const sfSlimSalt = 0xd6e8feb86659fd93

func sfSlimHash(h uint64) uint64 { return hashx.Mix64(h ^ sfSlimSalt) }

// sfMaxDepth caps decoded stage depths; real configurations use
// depth = O(log 1/δ) ≲ 30, so anything larger is corrupt input.
const sfMaxDepth = 64

// NewSFSketch creates a two-stage SF-sketch: a slimWidth×slimDepth
// slim stage (the wire representation) backed by a fatWidth×fatDepth
// fat stage (the update absorber). fatWidth is usually a small
// multiple of slimWidth — the paper's regime — and both stages share
// one hash seed.
func NewSFSketch(slimWidth, slimDepth, fatWidth, fatDepth int, seed uint64) *SFSketch {
	s := &SFSketch{
		slimL: mustBuild(Layout{Width: slimWidth, Depth: slimDepth, Seed: seed}, false),
		fatL:  mustBuild(Layout{Width: fatWidth, Depth: fatDepth, Seed: seed}, false),
	}
	s.slim, s.fat = make([]uint64, s.slimL.Len()), make([]uint64, s.fatL.Len())
	return s
}

// Add increments item's count by weight: one hash pass, every row
// position in both stages derived from it.
func (s *SFSketch) Add(item []byte, weight uint64) {
	s.AddHash(hashx.XXHash64(item, s.slimL.Seed), weight)
}

// AddUint64 increments an integer item's count by weight.
func (s *SFSketch) AddUint64(item, weight uint64) {
	s.AddHash(hashx.HashUint64(item, s.slimL.Seed), weight)
}

// Update implements core.Updater (weight 1).
func (s *SFSketch) Update(item []byte) { s.Add(item, 1) }

// AddHash folds a pre-hashed item into both stages. On a full-fat
// instance the fat rows are bumped first and their post-update minimum
// caps the conditional slim updates. A slim-only instance (decoded
// from a slim envelope) has no fat stage to consult, so it degrades to
// a plain Count-Min update over the slim grid — still never an
// undercount, just without the two-stage accuracy gain; slim-only
// instances exist to be queried and merged, not to absorb streams.
func (s *SFSketch) AddHash(h, weight uint64) {
	s.n += weight
	var buf [StackDepth]uint32 // the fat indices, then the slim ones
	slim, fat := s.slim, s.fat
	if fat == nil {
		for _, j := range s.slimL.Cells(sfSlimHash(h), buf[:]) {
			slim[j] += weight
		}
		return
	}
	// Fat stage: plain adds; the running minimum of the *new* counter
	// values is exactly the post-update fat estimate.
	fatEst := uint64(math.MaxUint64)
	for _, j := range s.fatL.Cells(h, buf[:]) {
		v := fat[j] + weight
		fat[j] = v
		fatEst = min(fatEst, v)
	}
	// Slim stage: raise each counter toward the fat estimate, never
	// past it. Counters already at or above fatEst are left alone.
	for _, j := range s.slimL.Cells(sfSlimHash(h), buf[:]) {
		if c := slim[j]; c < fatEst {
			slim[j] = min(c+weight, fatEst)
		}
	}
}

// AddWeightedHashBatch folds a block of pre-hashed items in, hs[i] with
// weight ws[i], in order. Byte-identical to calling AddHash per item.
func (s *SFSketch) AddWeightedHashBatch(hs, ws []uint64) {
	for i, h := range hs {
		s.AddHash(h, ws[i])
	}
}

// Estimate returns the point-query estimate for item: the minimum over
// the slim rows. Never an undercount (see the type invariant).
func (s *SFSketch) Estimate(item []byte) uint64 {
	return s.EstimateHash(hashx.XXHash64(item, s.slimL.Seed))
}

// EstimateUint64 returns the point-query estimate for an integer item.
func (s *SFSketch) EstimateUint64(item uint64) uint64 {
	return s.EstimateHash(hashx.HashUint64(item, s.slimL.Seed))
}

// EstimateHash answers a point query for a pre-hashed item from the
// slim stage.
func (s *SFSketch) EstimateHash(h uint64) uint64 {
	var buf [StackDepth]uint32
	return minAt(s.slim, s.slimL.Cells(sfSlimHash(h), buf[:]))
}

// FatEstimate answers a point query from the fat stage — the estimate
// a same-size plain Count-Min would give. It exists for diagnostics
// and the accuracy-per-byte experiment (E33); slim-only instances
// fall back to the slim estimate.
func (s *SFSketch) FatEstimate(item []byte) uint64 {
	if s.fat == nil {
		return s.Estimate(item)
	}
	var buf [StackDepth]uint32
	return minAt(s.fat, s.fatL.Cells(hashx.XXHash64(item, s.fatL.Seed), buf[:]))
}

// N returns the total weight added.
func (s *SFSketch) N() uint64 { return s.n }

// Seed returns the hash seed the sketch was created with.
func (s *SFSketch) Seed() uint64 { return s.slimL.Seed }

// Width returns the slim-stage width (the wire-relevant dimension).
func (s *SFSketch) Width() int { return s.slimL.Width }

// Depth returns the slim-stage depth.
func (s *SFSketch) Depth() int { return s.slimL.Depth }

// FatWidth returns the fat-stage width.
func (s *SFSketch) FatWidth() int { return s.fatL.Width }

// FatDepth returns the fat-stage depth.
func (s *SFSketch) FatDepth() int { return s.fatL.Depth }

// SlimOnly reports whether this instance carries only the slim stage
// (decoded from a slim envelope or merged from slim envelopes).
func (s *SFSketch) SlimOnly() bool { return s.fat == nil }

// SizeBytes returns the resident counter storage: both stages on a
// full instance, the slim grid alone on a slim-only one.
func (s *SFSketch) SizeBytes() int { return (len(s.slim) + len(s.fat)) * 8 }

// SlimSizeBytes returns the slim-stage counter bytes — the payload a
// slim envelope ships (plus the fixed header).
func (s *SFSketch) SlimSizeBytes() int { return len(s.slim) * 8 }

// ErrorBound returns the fat stage's additive error bound ε·N =
// (e/fatWidth)·N — the error regime the slim estimates track. For a
// slim-only instance the bound degrades to the slim width's.
func (s *SFSketch) ErrorBound() float64 {
	w := s.fatL.Width
	if s.fat == nil {
		w = s.slimL.Width
	}
	return math.E / float64(w) * float64(s.n)
}

// Merge folds another sketch's counters in cell-wise. Full+full merges
// sum both stages; slim+slim merges (the query-side path a coordinator
// uses after a slim gather) sum the slim grids — the sum of per-shard
// overestimates is still an overestimate of the combined stream, at
// some conservatism cost relative to a full merge. Mixing a full and a
// slim-only instance is rejected: a fat stage that missed part of the
// stream would cap later conditional updates below the true count and
// break the no-undercount invariant.
func (s *SFSketch) Merge(other *SFSketch) error {
	if !s.slimL.Same(other.slimL) || !s.fatL.Same(other.fatL) {
		return fmt.Errorf("%w: sf-sketch slim %v fat %v vs slim %v fat %v",
			core.ErrIncompatible, s.slimL, s.fatL, other.slimL, other.fatL)
	}
	if (s.fat == nil) != (other.fat == nil) {
		return fmt.Errorf("%w: sf-sketch slim-only and full-fat instances do not merge", core.ErrIncompatible)
	}
	for j, v := range other.slim {
		s.slim[j] += v
	}
	for j, v := range other.fat {
		s.fat[j] += v
	}
	s.n += other.n
	return nil
}

// Mode byte values in the SF wire envelope.
const (
	sfModeFull byte = 0 // both stages on the wire (durability, replication)
	sfModeSlim byte = 1 // slim stage only (scatter-gather, bundles)
)

// MarshalBinary serializes the sketch: full mode when the fat stage is
// resident, slim mode for a slim-only instance — so a slim envelope
// decodes and re-marshals byte-identically. Durability and replication
// always see full envelopes (they need byte-identical recovery of the
// whole state); slim envelopes are produced on demand by MarshalSlim
// for the wire paths that trade state for bytes.
func (s *SFSketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to dst (Go 1.24's
// encoding.BinaryAppender).
func (s *SFSketch) AppendBinary(dst []byte) ([]byte, error) { return s.encode(dst, nil, s.fullMode()) }

// StreamBinary writes the envelope AppendBinary appends to sink, both
// stages' tables as the words they are.
func (s *SFSketch) StreamBinary(sink core.Sink) error {
	_, err := s.encode(nil, sink, s.fullMode())
	return err
}

// fullMode is the mode MarshalBinary writes: full while the fat stage
// is resident.
func (s *SFSketch) fullMode() byte {
	if s.fat == nil {
		return sfModeSlim
	}
	return sfModeFull
}

// MarshalSlim serializes the slim stage only: the same versioned GSK1
// envelope with the slim mode byte, both stages' shapes (so merge
// compatibility checks survive the trip), and just the slim grid.
// For the default shape the payload is fatWidth/slimWidth-times
// smaller than a full envelope.
func (s *SFSketch) MarshalSlim() ([]byte, error) { return s.AppendSlim(nil) }

// AppendSlim appends what MarshalSlim returns to dst.
func (s *SFSketch) AppendSlim(dst []byte) ([]byte, error) { return s.encode(dst, nil, sfModeSlim) }

// encode writes the envelope of the given mode in one sized pass: to
// sink when it is set, else at the end of dst.
func (s *SFSketch) encode(dst []byte, sink core.Sink, mode byte) ([]byte, error) {
	size := 33 + s.slimL.wireSize()
	if mode == sfModeFull {
		size += s.fatL.wireSize()
	}
	w := core.OpenWriter(dst, sink, core.TagSFSketch, 1, size)
	w.U8(mode)
	w.U32(uint32(s.slimL.Width))
	w.U32(uint32(s.slimL.Depth))
	w.U32(uint32(s.fatL.Width))
	w.U32(uint32(s.fatL.Depth))
	w.U64(s.slimL.Seed)
	w.U64(s.n)
	writeTable(w, &s.slimL, s.slim)
	if mode == sfModeFull {
		writeTable(w, &s.fatL, s.fat)
	}
	return w.Finish()
}

// sfHeader reads an SF envelope up to its first table and validates it:
// the mode byte, and both stages' shapes, built. What UnmarshalBinary
// accepts and what SFWire locates cells in is decided here, once.
func sfHeader(data []byte) (r *core.Reader, mode byte, s SFSketch, err error) {
	if r, _, err = core.NewReaderVersioned(data, core.TagSFSketch, 1); err != nil {
		return nil, 0, s, err
	}
	mode = r.U8()
	s = SFSketch{
		slimL: Layout{Width: int(r.U32()), Depth: int(r.U32())},
		fatL:  Layout{Width: int(r.U32()), Depth: int(r.U32())},
	}
	s.slimL.Seed = r.U64()
	s.fatL.Seed = s.slimL.Seed
	s.n = r.U64()
	if r.Err() != nil {
		return nil, 0, s, r.Err()
	}
	if mode > sfModeSlim {
		return nil, 0, s, fmt.Errorf("%w: sf-sketch mode byte %d", core.ErrCorrupt, mode)
	}
	for _, l := range []*Layout{&s.slimL, &s.fatL} {
		if l.Depth > sfMaxDepth {
			return nil, 0, s, fmt.Errorf("%w: sf-sketch stage depth %d", core.ErrCorrupt, l.Depth)
		}
		if *l, err = l.build(false); err != nil {
			return nil, 0, s, fmt.Errorf("%w: sf-sketch stage: %v", core.ErrCorrupt, err)
		}
	}
	return r, mode, s, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary or
// MarshalSlim. A slim envelope yields a slim-only instance (fat stage
// nil) that answers queries and merges with other slim-only peers.
func (s *SFSketch) UnmarshalBinary(data []byte) error {
	r, mode, fresh, err := sfHeader(data)
	if err != nil {
		return err
	}
	if fresh.slim, err = readTable[uint64](r, &fresh.slimL); err != nil {
		return err
	}
	if mode == sfModeFull {
		if fresh.fat, err = readTable[uint64](r, &fresh.fatL); err != nil {
			return err
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*s = fresh
	return nil
}

// SFWire validates an SF envelope as UnmarshalBinary does and locates
// its cells for a merge of envelopes (core.WireCells): the mode byte, both
// shapes and the seed must agree, n adds, and the slim table — in a full
// envelope the fat one after it — adds cell-wise, which is Merge.
func SFWire(env []byte) (core.WireCells, bool, error) {
	r, mode, s, err := sfHeader(env)
	if err != nil {
		return core.WireCells{}, false, err
	}
	c := core.WireCells{Sum: r.Offset() - 8, Start: r.Offset()}
	c.Tables[0] = s.slimL.wireTable()
	if mode == sfModeFull {
		c.Tables[1] = s.fatL.wireTable()
	}
	return c, true, c.Check(env)
}
