package registry

import (
	"fmt"
	"net/url"

	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/hashx"
)

// Projection is the query-pushdown carrier: the small mergeable summary
// of the cells one query reads, shipped in place of the table they live
// in. A family that declares Descriptor.Project promises, for every
// query q it projects and any compatible instances s1..sk,
//
//	Query(Merge(s1..sk), q) == Finish(Merge(Project(s1,q)..Project(sk,q)), q)
//
// as result maps, exactly. Merge is the same wrapping cell-wise addition
// the family's own merge performs, guarded by three equalities: the
// origin family, the shape fingerprint (everything that decides which
// cells a query addresses: dimensions, seed, layout), and the digest of
// the canonical query. It is registered as a descriptor of its own, so
// a reader that gathers envelopes decodes, tree-merges and queries
// projections through exactly the path it uses for full envelopes.
type Projection struct {
	Origin byte   // wire tag of the family that projected
	Shape  uint64 // fingerprint of the origin's shape, seed and layout
	Query  uint64 // digest of the canonical (url.Values.Encode) query
	N      uint64 // the origin's total weight
	Cells  []uint64
}

// maxProjectionCells bounds a decoded projection: every projecting
// family reads one cell per row, and no family allows more than 65 rows.
const maxProjectionCells = 128

// cellProjection is the projection of a hashed-counter family
// (Count-Min, Count-Sketch); the fingerprint covers the layout, which
// is everything that decides which cells an item addresses. Its
// rendering is frozen: mixed-version fleets compare it.
func cellProjection(l frequency.Layout, n uint64, cells []uint64) *Projection {
	shape := hashx.XXHash64String(fmt.Sprint(l.Width, l.Depth, l.Seed, l.Mode == frequency.Fused, l.Mode == frequency.KWise), 0)
	return &Projection{Shape: shape, N: n, Cells: cells}
}

// cellsAs reinterprets cells between the carrier's uint64s and a signed
// family's int64s (two's complement either way).
func cellsAs[T, U int64 | uint64](in []T) []U {
	out := make([]U, len(in))
	for i, v := range in {
		out[i] = U(v)
	}
	return out
}

func queryDigest(query url.Values) uint64 {
	return hashx.XXHash64String(query.Encode(), 0)
}

// Projection runs the family's Project for query and stamps the result
// with the origin tag and query digest. It returns (nil, nil) when the
// family does not project, or not this query — the caller then ships
// the full envelope, which answers every query.
func (d *Descriptor) Projection(inst any, query url.Values) (*Projection, error) {
	if d.Project == nil {
		return nil, nil
	}
	inst, l := held(inst)
	l.sync()
	l.lock()
	defer l.unlock()
	p, err := d.Project(inst, query)
	if p == nil || err != nil {
		return nil, err
	}
	p.Origin, p.Query = d.Tag, queryDigest(query)
	return p, nil
}

// Merge adds a compatible projection's cells and weight.
func (p *Projection) Merge(other *Projection) error {
	if p.Origin != other.Origin || p.Shape != other.Shape || len(p.Cells) != len(other.Cells) {
		return fmt.Errorf("%w: projections of differently shaped or seeded sketches", core.ErrIncompatible)
	}
	if p.Query != other.Query {
		return fmt.Errorf("%w: projections of different queries", core.ErrIncompatible)
	}
	for i, v := range other.Cells {
		p.Cells[i] += v
	}
	p.N += other.N
	return nil
}

// finish answers query from a (merged) projection through the origin
// family's Finish, refusing a projection taken for any other query.
func (p *Projection) finish(query url.Values) (map[string]any, error) {
	d, ok := byTag[p.Origin]
	if !ok || d.Finish == nil || len(p.Cells) == 0 {
		return nil, fmt.Errorf("%w: projection of origin tag %d with %d cells", core.ErrCorrupt, p.Origin, len(p.Cells))
	}
	if queryDigest(query) != p.Query {
		return nil, fmt.Errorf("%w: projection was taken for a different query", core.ErrIncompatible)
	}
	return d.Finish(p, query)
}

// MarshalBinary serializes the projection in a GSK1 envelope.
func (p *Projection) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagProjection, 1)
	w.U8(p.Origin)
	w.U64(p.Shape)
	w.U64(p.Query)
	w.U64(p.N)
	w.U64Slice(p.Cells)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a projection. The cell count is bounded twice:
// by the bytes actually present (before allocating) and by
// maxProjectionCells; the envelope must end with the last cell.
func (p *Projection) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagProjection, 1)
	if err != nil {
		return err
	}
	fresh := Projection{Origin: r.U8(), Shape: r.U64(), Query: r.U64(), N: r.U64(), Cells: r.U64Slice()}
	if err := r.Done(); err != nil {
		return err
	}
	if len(fresh.Cells) > maxProjectionCells {
		return fmt.Errorf("%w: projection of %d cells (max %d)", core.ErrCorrupt, len(fresh.Cells), maxProjectionCells)
	}
	*p = fresh
	return nil
}

func init() {
	register(Descriptor{
		Tag:    core.TagProjection,
		Name:   "projection",
		Family: "wire",
		Doc:    "query projection: the cells one query reads (see Descriptor.Project)",
		New:    func(Params) (any, error) { return &Projection{}, nil },
		Decode: decode1[Projection](),
		Bind: Bindings{
			Query: query1((*Projection).finish),
			Merge: merge2[*Projection](),
		},
	})
}
